// Golden test of vdbtool's command-line surface: the usage text is the
// tool's public contract, so it is pinned here verbatim — every subcommand
// (stream-ingest included) must stay advertised, and the unknown-command
// and wrong-arity diagnostics must stay distinguishable. Also pins that
// vdbserve and the catalog verbs take exactly one store directory.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#ifndef VDB_VDBTOOL_PATH
#error "VDB_VDBTOOL_PATH must point at the built vdbtool binary"
#endif
#ifndef VDB_VDBSERVE_PATH
#error "VDB_VDBSERVE_PATH must point at the built vdbserve binary"
#endif

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr interleaved
};

ToolRun RunTool(const std::string& args,
                const char* binary = VDB_VDBTOOL_PATH) {
  ToolRun run;
  std::string command = binary;
  if (!args.empty()) command += " " + args;
  command += " 2>&1";
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
    "usage:\n"
    "  vdbtool synth <preset> <out.vdb> [scale]\n"
    "  vdbtool info <clip.vdb>\n"
    "  vdbtool analyze <clip.vdb>...\n"
    "  vdbtool store-save <store-dir> <clip.vdb>...\n"
    "  vdbtool store-open <store-dir>\n"
    "  vdbtool store-compact <store-dir>\n"
    "  vdbtool store-shard <store-dir> <out-dir> <shards> [seed]\n"
    "  vdbtool stream-ingest <clip.vdb> <store-dir> [shots-per-checkpoint]\n"
    "  vdbtool index-build <store-dir>\n"
    "  vdbtool index-query <store-dir> <video> <shot> [k]\n"
    "  vdbtool tree <clip.vdb>\n"
    "  vdbtool query <store-dir> <varBA> <varOA> [k] [genre=G] [form=F]\n"
    "  vdbtool classify <store-dir> <video-id> <form> <genre>...\n"
    "  vdbtool browse <clip.vdb> [child.child...]\n"
    "  vdbtool export-frame <clip.vdb> <frame#> <out.ppm>\n"
    "  vdbtool presets\n"
    "  vdbtool version\n"
    "serving a catalog (separate tools):\n"
    "  vdbserve <store-dir> --port N           long-lived query service\n"
    "  vdbload --port N                        load generator / latency "
    "bench\n"
    "  vdbstream --streams N --preset P        multi-tenant ingest farm\n";

TEST(VdbtoolCliTest, NoArgsPrintsGoldenUsage) {
  ToolRun run = RunTool("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output, std::string("vdbtool: missing command\n") + kUsage);
}

TEST(VdbtoolCliTest, UnknownCommandIsNamedBeforeUsage) {
  ToolRun run = RunTool("florble");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string("vdbtool: unknown command 'florble'\n") + kUsage);
}

TEST(VdbtoolCliTest, WrongArityIsDistinguishedFromUnknownCommand) {
  ToolRun run = RunTool("stream-ingest");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string("vdbtool: wrong arguments for 'stream-ingest'\n") +
                kUsage);
}

TEST(VdbtoolCliTest, StreamIngestIsAdvertised) {
  // Also covered by the golden comparison above; this pins the exact
  // synopsis so a reworded usage line is an explicit decision.
  EXPECT_NE(std::string(kUsage).find(
                "vdbtool stream-ingest <clip.vdb> <store-dir> "
                "[shots-per-checkpoint]"),
            std::string::npos);
}

TEST(VdbtoolCliTest, IndexCommandsAreAdvertised) {
  // Pins the index-build / index-query synopses (satellite of the frame
  // index PR) so a reworded usage line is an explicit decision.
  EXPECT_NE(std::string(kUsage).find("vdbtool index-build <store-dir>"),
            std::string::npos);
  EXPECT_NE(std::string(kUsage).find(
                "vdbtool index-query <store-dir> <video> <shot> [k]\n"),
            std::string::npos);
}

TEST(VdbtoolCliTest, IndexQueryWrongArityIsNamed) {
  ToolRun run = RunTool("index-query /tmp/nowhere");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.output,
            std::string("vdbtool: wrong arguments for 'index-query'\n") +
                kUsage);
}

TEST(VdbtoolCliTest, IndexBuildOnMissingStoreFailsCleanly) {
  ToolRun run = RunTool("index-build /nonexistent-store-dir");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("error:"), std::string::npos);
}

TEST(VdbtoolCliTest, VersionReportsSimdDispatch) {
  // The exact level is host-dependent, but the line shape is pinned: the
  // active level, the detected level, and the full availability list
  // (scalar is always compiled in).
  ToolRun run = RunTool("version");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("vdbtool (video database toolkit)\n"),
            std::string::npos);
  EXPECT_NE(run.output.find("simd: "), std::string::npos);
  EXPECT_NE(run.output.find("(detected "), std::string::npos);
  EXPECT_NE(run.output.find("available scalar"), std::string::npos);
}

TEST(VdbtoolCliTest, VersionHonorsSimdEnvOverride) {
  const char* saved = getenv("VDB_SIMD");
  std::string saved_value = saved != nullptr ? saved : "";
  setenv("VDB_SIMD", "scalar", 1);
  ToolRun forced = RunTool("version");
  if (saved != nullptr) {
    setenv("VDB_SIMD", saved_value.c_str(), 1);
  } else {
    unsetenv("VDB_SIMD");
  }
  ASSERT_EQ(forced.exit_code, 0);
  EXPECT_NE(forced.output.find("simd: scalar"), std::string::npos);
}

TEST(VdbtoolCliTest, VersionIgnoresRetiredSimdLevel) {
  // "sse4" named a dispatch level that no longer exists: it is an unknown
  // VDB_SIMD value now, warned about once, and dispatch keeps the
  // detected level.
  const char* saved = getenv("VDB_SIMD");
  std::string saved_value = saved != nullptr ? saved : "";
  setenv("VDB_SIMD", "sse4", 1);
  ToolRun run = RunTool("version");
  if (saved != nullptr) {
    setenv("VDB_SIMD", saved_value.c_str(), 1);
  } else {
    unsetenv("VDB_SIMD");
  }
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ignoring VDB_SIMD='sse4'"), std::string::npos)
      << run.output;
  const std::string marker = "(detected ";
  size_t at = run.output.find(marker);
  ASSERT_NE(at, std::string::npos) << run.output;
  size_t end = run.output.find(';', at);
  ASSERT_NE(end, std::string::npos) << run.output;
  const std::string detected =
      run.output.substr(at + marker.size(), end - at - marker.size());
  EXPECT_NE(run.output.find("simd: " + detected + " (detected"),
            std::string::npos)
      << run.output;
}

TEST(VdbtoolCliTest, StreamIngestOnMissingFileFailsCleanly) {
  ToolRun run = RunTool("stream-ingest /nonexistent.vdb /tmp/nowhere");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("error:"), std::string::npos);
}

TEST(VdbtoolCliTest, QueryOnAPlainFileFailsCleanly) {
  const std::string path = testing::TempDir() + "/cli_plain_catalog";
  std::ofstream(path, std::ios::trunc) << "not a store";
  ToolRun run = RunTool("query " + path + " 10 30 3");
  std::remove(path.c_str());
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("error:"), std::string::npos);
}

TEST(VdbserveCliTest, SecondStoreDirectoryIsAUsageError) {
  // Rejected while parsing arguments: nothing is opened or bound.
  ToolRun run = RunTool("/nonexistent-a /nonexistent-b", VDB_VDBSERVE_PATH);
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("got a second, '/nonexistent-b'"),
            std::string::npos);
  EXPECT_NE(run.output.find("usage: vdbserve <store-dir>"),
            std::string::npos);
}

}  // namespace
