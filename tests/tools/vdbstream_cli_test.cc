// Golden test of vdbstream's command-line surface: the usage text (solo
// and farm-mode flags) is pinned verbatim, unknown flags must be named on
// stderr before the usage and exit nonzero, and flag-combination errors
// must stay distinguishable.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#ifndef VDB_VDBSTREAM_PATH
#error "VDB_VDBSTREAM_PATH must point at the built vdbstream binary"
#endif

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;
};

ToolRun RunTool(const std::string& args, bool merge_stderr = true) {
  ToolRun run;
  std::string command = std::string(VDB_VDBSTREAM_PATH);
  if (!args.empty()) command += " " + args;
  command += merge_stderr ? " 2>&1" : " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

constexpr char kUsage[] =
    "usage: vdbstream (--file <clip.vdb> | --preset <name>) [options]\n"
    "  --scale S               preset render scale (default 0.1)\n"
    "  --seed N                preset render seed (default 2000)\n"
    "  --queue-capacity N      frames in flight per stream (default 8)\n"
    "  --threads N             signature-stage worker fan-out (default 1)\n"
    "  --checkpoint-every N    publish after every N closed shots\n"
    "  --checkpoint-seconds M  publish after every M media-seconds\n"
    "  --publish-to DIR        catalog store directory to publish into\n"
    "  --reload HOST:PORT      ask a vdbserve to RELOAD after each publish\n"
    "  --resume                continue from DIR's checkpoint of this clip\n"
    "  --json                  machine-readable report\n"
    "farm mode (multi-tenant ingest; needs a preset source):\n"
    "  --streams N             run N streams as one farm\n"
    "  --preset-mix A,B,...    per-stream presets, cycled to fill N\n"
    "  --weights W1,W2,...     per-stream fair-share weights, cycled\n"
    "  --farm-workers N        shared signature workers (default: cores)\n"
    "  --max-streams N         admission cap (default 16)\n"
    "  --target-fps F          real-time target per stream\n"
    "  --shed-after S          shed lagging streams after S seconds\n"
    "presets: ten-shot, friends, simon-birch, wag-the-dog, or any Table-5\n"
    "clip name prefix (vdbtool presets lists them)\n";

TEST(VdbstreamCliTest, NoArgsPrintsGoldenUsage) {
  ToolRun run = RunTool("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string(
                "vdbstream: exactly one of --file / --preset is required\n") +
                kUsage);
}

TEST(VdbstreamCliTest, UnknownFlagIsNamedOnStderrAndExitsNonzero) {
  ToolRun run = RunTool("--preset ten-shot --florble");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string(
                "vdbstream: unknown or incomplete argument '--florble'\n") +
                kUsage);

  // The diagnostic goes to stderr, not stdout.
  ToolRun quiet = RunTool("--preset ten-shot --florble",
                          /*merge_stderr=*/false);
  EXPECT_EQ(quiet.exit_code, 2);
  EXPECT_TRUE(quiet.output.empty()) << quiet.output;
}

TEST(VdbstreamCliTest, FlagMissingItsValueIsIncompleteNotSilent) {
  ToolRun run = RunTool("--preset");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string(
                "vdbstream: unknown or incomplete argument '--preset'\n") +
                kUsage);
}

TEST(VdbstreamCliTest, FileAndPresetTogetherAreRefused) {
  ToolRun run = RunTool("--file a.vdb --preset ten-shot");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string(
                "vdbstream: exactly one of --file / --preset is required\n") +
                kUsage);
}

TEST(VdbstreamCliTest, FarmModeRefusesFileSources) {
  ToolRun run = RunTool("--file a.vdb --streams 4");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string("vdbstream: farm mode streams presets, not --file\n") +
                kUsage);
}

TEST(VdbstreamCliTest, FarmModeNeedsAPresetSource) {
  ToolRun run = RunTool("--streams 4");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string(
                "vdbstream: farm mode needs --preset or --preset-mix\n") +
                kUsage);
}

TEST(VdbstreamCliTest, FarmFlagsAreAdvertised) {
  // Pins the farm synopsis lines so a reworded flag is an explicit
  // decision (the farm PR's CLI contract).
  const std::string usage(kUsage);
  EXPECT_NE(usage.find("--streams N"), std::string::npos);
  EXPECT_NE(usage.find("--preset-mix A,B,..."), std::string::npos);
  EXPECT_NE(usage.find("--weights W1,W2,..."), std::string::npos);
  EXPECT_NE(usage.find("--farm-workers N"), std::string::npos);
  EXPECT_NE(usage.find("--max-streams N"), std::string::npos);
  EXPECT_NE(usage.find("--shed-after S"), std::string::npos);
}

TEST(VdbstreamCliTest, JsonReportCarriesSimdLevel) {
  // A tiny solo run: the machine-readable report must identify which SIMD
  // dispatch level produced the signatures (scalar / sse4 / avx2), so
  // perf numbers are attributable to a kernel configuration.
  ToolRun run = RunTool("--preset ten-shot --scale 0.03 --json",
                        /*merge_stderr=*/false);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"simd_level\": \""), std::string::npos)
      << run.output;
}

TEST(VdbstreamCliTest, AdmissionRefusalSurfacesAsError) {
  // 4 streams offered against --max-streams 2: refused before any work,
  // with the farm's kUnavailable diagnostic on stderr and exit 1.
  ToolRun run =
      RunTool("--preset ten-shot --streams 4 --max-streams 2 --scale 0.06");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("error:"), std::string::npos);
  EXPECT_NE(run.output.find("admission refused"), std::string::npos);
}

}  // namespace
