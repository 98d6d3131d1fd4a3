// vdbstream — streaming ingest front end for the video database library.
//
// Runs the stream::Pipeline over a .vdb file or a synthetic preset:
// frame-at-a-time decode and signature on worker threads, a bounded reorder
// window, incremental SBD / scene tree / features, and optional
// checkpointed publishes into a catalog store so a vdbserve instance can
// answer queries mid-ingest.
//
//   vdbstream --file clip.vdb --publish-to store/ --checkpoint-every 4
//   vdbstream --preset friends --publish-to store/ --reload 127.0.0.1:7711
//   vdbstream --file clip.vdb --publish-to store/ --resume
//
// With --streams or --preset-mix it becomes a multi-tenant ingest farm
// (farm::StreamFarm): N pipelines share one worker pool under
// weighted-fair scheduling, and all checkpoints funnel through a single
// committer into one store.
//
//   vdbstream --preset friends --streams 8 --publish-to store/
//   vdbstream --preset-mix friends,ten-shot --weights 3,1 --json

#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels/simd.h"
#include "farm/committer.h"
#include "farm/farm.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "synth/presets.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace vdb {
namespace {

int Usage() {
  std::cerr <<
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
  return 2;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

Result<Storyboard> PresetBoard(const std::string& preset, double scale,
                               unsigned seed) {
  if (preset == "ten-shot") return TenShotStoryboard();
  if (preset == "friends") return FriendsStoryboard();
  if (preset == "simon-birch") return SimonBirchStoryboard();
  if (preset == "wag-the-dog") return WagTheDogStoryboard();
  for (const ClipProfile& profile : Table5Profiles()) {
    if (StartsWith(profile.name, preset)) {
      return MakeStoryboardFromProfile(profile, scale, seed);
    }
  }
  return Status::NotFound("no preset matching '" + preset + "'");
}

Result<Video> PresetVideo(const std::string& preset, double scale,
                          unsigned seed) {
  Result<Storyboard> board = PresetBoard(preset, scale, seed);
  if (!board.ok()) return board.status();
  Result<SyntheticVideo> rendered = RenderStoryboard(*board);
  if (!rendered.ok()) return rendered.status();
  return std::move(rendered->video);
}

void PrintJson(const stream::PipelineReport& r) {
  std::cout << "{\n"
            << "  \"simd_level\": \"" << SimdLevelName(ActiveSimdLevel())
            << "\",\n"
            << "  \"frames\": " << r.frames << ",\n"
            << "  \"shots\": " << r.shots << ",\n"
            << "  \"checkpoints\": " << r.checkpoints << ",\n"
            << "  \"store_generation\": " << r.store_generation << ",\n"
            << "  \"reloads_ok\": " << r.reloads_ok << ",\n"
            << "  \"reload_failures\": " << r.reload_failures << ",\n"
            << "  \"first_shot_seconds\": "
            << FormatDouble(r.first_shot_seconds, 6) << ",\n"
            << "  \"first_publish_seconds\": "
            << FormatDouble(r.first_publish_seconds, 6) << ",\n"
            << "  \"total_seconds\": " << FormatDouble(r.total_seconds, 6)
            << ",\n"
            << "  \"max_frames_in_flight\": " << r.max_frames_in_flight
            << ",\n"
            << "  \"resumed_from_frame\": " << r.resumed_from_frame << ",\n"
            << "  \"resumed_shots\": " << r.resumed_shots << ",\n"
            << "  \"cancelled\": " << (r.cancelled ? "true" : "false")
            << ",\n"
            << "  \"stages\": [\n";
  for (size_t i = 0; i < r.stages.size(); ++i) {
    const stream::StageReport& s = r.stages[i];
    std::cout << "    {\"name\": \"" << s.name << "\", \"items\": " << s.items
              << ", \"busy_seconds\": " << FormatDouble(s.busy_seconds, 6)
              << ", \"queue_high_water\": " << s.queue_high_water
              << ", \"queue_total\": " << s.queue_total << "}"
              << (i + 1 < r.stages.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

void PrintHuman(const std::string& name, const stream::PipelineReport& r) {
  std::cout << name << ": " << r.frames << " frames -> " << r.shots
            << " shots in " << FormatDouble(r.total_seconds, 2) << "s";
  if (r.resumed_from_frame > 0) {
    std::cout << " (resumed at frame " << r.resumed_from_frame << " past "
              << r.resumed_shots << " shots)";
  }
  if (r.cancelled) std::cout << " [cancelled]";
  std::cout << "\n";
  if (r.first_shot_seconds >= 0) {
    std::cout << "  first shot closed at "
              << FormatDouble(r.first_shot_seconds, 3) << "s\n";
  }
  if (r.checkpoints > 0) {
    std::cout << "  " << r.checkpoints << " publish(es), store generation "
              << r.store_generation << ", first at "
              << FormatDouble(r.first_publish_seconds, 3) << "s\n";
  }
  if (r.reloads_ok + r.reload_failures > 0) {
    std::cout << "  server reloads: " << r.reloads_ok << " ok, "
              << r.reload_failures << " failed\n";
  }
  std::cout << "  peak decoded frames in flight: " << r.max_frames_in_flight
            << "\n";
  TablePrinter t({"Stage", "Items", "Busy (s)", "Queue high-water",
                  "Queue total"});
  for (const stream::StageReport& s : r.stages) {
    t.AddRow({s.name, StrFormat("%ld", s.items),
              FormatDouble(s.busy_seconds, 3),
              StrFormat("%d", s.queue_high_water),
              StrFormat("%llu", static_cast<unsigned long long>(
                                    s.queue_total))});
  }
  t.Print(std::cout);
}

// Per-stream queue counters from the pipeline's own stage report (the live
// dispatcher view is gone once a stream detaches).
const stream::StageReport* FindStage(const stream::PipelineReport& r,
                                     const char* name) {
  for (const stream::StageReport& s : r.stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void PrintFarmJson(const farm::FarmReport& report, int workers) {
  const farm::FarmMetrics& m = report.final_metrics;
  std::cout << "{\n"
            << "  \"simd_level\": \"" << SimdLevelName(ActiveSimdLevel())
            << "\",\n"
            << "  \"streams\": " << report.streams.size() << ",\n"
            << "  \"workers\": " << workers << ",\n"
            << "  \"wall_seconds\": " << FormatDouble(report.wall_seconds, 6)
            << ",\n"
            << "  \"finished\": " << m.finished << ",\n"
            << "  \"shed\": " << m.shed << ",\n"
            << "  \"cancelled\": " << m.cancelled << ",\n"
            << "  \"failed\": " << m.failed << ",\n"
            << "  \"publishes\": " << report.publishes << ",\n"
            << "  \"store_generation\": " << report.store_generation << ",\n"
            << "  \"reloads_ok\": " << report.reloads_ok << ",\n"
            << "  \"reload_failures\": " << report.reload_failures << ",\n"
            << "  \"reloads_coalesced\": " << report.reloads_coalesced
            << ",\n"
            << "  \"per_stream\": [\n";
  for (size_t i = 0; i < report.streams.size(); ++i) {
    const farm::StreamOutcome& o = report.streams[i];
    const farm::StreamMetrics* sm =
        i < m.streams.size() ? &m.streams[i] : nullptr;
    const stream::StageReport* decode = FindStage(o.report, "decode");
    const stream::StageReport* sig = FindStage(o.report, "signature");
    std::cout << "    {\"name\": \"" << o.name << "\", \"state\": \""
              << farm::StreamStateName(o.state) << "\""
              << ", \"weight\": " << (sm != nullptr ? sm->weight : 1)
              << ", \"frames\": " << o.report.frames
              << ", \"shots\": " << o.report.shots
              << ", \"checkpoints\": " << o.report.checkpoints
              << ", \"signature_steps\": "
              << (sm != nullptr ? sm->signature_steps : 0)
              << ", \"resumed_from_frame\": " << o.report.resumed_from_frame
              << ", \"decode_queue_high_water\": "
              << (decode != nullptr ? decode->queue_high_water : 0)
              << ", \"decode_queue_total\": "
              << (decode != nullptr ? decode->queue_total : 0)
              << ", \"signature_queue_high_water\": "
              << (sig != nullptr ? sig->queue_high_water : 0)
              << ", \"signature_queue_total\": "
              << (sig != nullptr ? sig->queue_total : 0)
              << ", \"total_seconds\": "
              << FormatDouble(o.report.total_seconds, 6) << "}"
              << (i + 1 < report.streams.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

void PrintFarmHuman(const farm::FarmReport& report, int workers) {
  const farm::FarmMetrics& m = report.final_metrics;
  std::cout << "farm: " << report.streams.size() << " streams over "
            << workers << " shared signature worker(s) in "
            << FormatDouble(report.wall_seconds, 2) << "s — "
            << m.finished << " finished";
  if (m.shed > 0) std::cout << ", " << m.shed << " shed";
  if (m.cancelled > 0) std::cout << ", " << m.cancelled << " cancelled";
  if (m.failed > 0) std::cout << ", " << m.failed << " failed";
  std::cout << "\n";
  if (report.publishes > 0) {
    std::cout << "  " << report.publishes
              << " publish(es), store generation " << report.store_generation;
    if (report.reloads_ok + report.reload_failures +
            report.reloads_coalesced > 0) {
      std::cout << "; reloads " << report.reloads_ok << " ok, "
                << report.reload_failures << " failed, "
                << report.reloads_coalesced << " coalesced";
    }
    std::cout << "\n";
  }
  TablePrinter t({"Stream", "State", "Weight", "Frames", "Shots",
                  "Checkpoints", "Sig steps"});
  for (size_t i = 0; i < report.streams.size(); ++i) {
    const farm::StreamOutcome& o = report.streams[i];
    const farm::StreamMetrics* sm =
        i < m.streams.size() ? &m.streams[i] : nullptr;
    t.AddRow({o.name, farm::StreamStateName(o.state),
              StrFormat("%d", sm != nullptr ? sm->weight : 1),
              StrFormat("%d", o.report.frames),
              StrFormat("%d", o.report.shots),
              StrFormat("%d", o.report.checkpoints),
              StrFormat("%llu",
                        static_cast<unsigned long long>(
                            sm != nullptr ? sm->signature_steps : 0))});
  }
  t.Print(std::cout);
  for (const farm::StreamOutcome& o : report.streams) {
    if (o.state == farm::StreamState::kFailed) {
      std::cout << "  " << o.name << " failed: " << o.status << "\n";
    }
  }
}

struct FarmCliOptions {
  int streams = 0;  // 0 = solo mode
  std::vector<std::string> preset_mix;
  std::vector<int> weights;
  int workers = 0;
  int max_streams = 16;
  double target_fps = 0.0;
  double shed_after = 0.0;
};

int RunFarm(const FarmCliOptions& cli, const std::string& preset,
            double scale, unsigned seed, const stream::PipelineOptions& popts,
            const farm::CommitterOptions& commit, bool resume, bool json) {
  std::vector<std::string> presets = cli.preset_mix;
  if (presets.empty()) {
    if (preset.empty()) {
      std::cerr << "vdbstream: farm mode needs --preset or --preset-mix\n";
      return Usage();
    }
    presets.push_back(preset);
  }
  int n = cli.streams > 0 ? cli.streams : static_cast<int>(presets.size());

  std::vector<farm::StreamSpec> specs;
  std::map<std::string, Video> renders;  // render each preset only once
  std::map<std::string, int> copies;     // disambiguate repeated presets
  for (int i = 0; i < n; ++i) {
    const std::string& name = presets[i % presets.size()];
    if (renders.find(name) == renders.end()) {
      Result<Video> video = PresetVideo(name, scale, seed);
      if (!video.ok()) return Fail(video.status());
      renders.emplace(name, std::move(*video));
    }
    Video video = renders.at(name);
    const int copy = ++copies[name];
    if (copy > 1) {
      // The k-th copy of a preset streams under "<name>#k" so every
      // tenant owns its own catalog entry.
      video.set_name(video.name() + StrFormat("#%d", copy));
    }
    farm::StreamSpec spec;
    spec.source = stream::MakeVideoFrameSource(std::move(video));
    if (!cli.weights.empty()) {
      spec.weight = cli.weights[i % cli.weights.size()];
    }
    spec.target_fps = cli.target_fps;
    specs.push_back(std::move(spec));
  }

  farm::FarmOptions fopts;
  fopts.database = popts.database;
  fopts.max_streams = cli.max_streams;
  fopts.signature_workers = cli.workers;
  fopts.queue_capacity = popts.queue_capacity;
  fopts.checkpoint_every_shots = popts.checkpoint_every_shots;
  fopts.checkpoint_every_media_seconds =
      popts.checkpoint_every_media_seconds;
  fopts.publish_dir = popts.publish_dir;
  fopts.reload_host = commit.reload_host;
  fopts.reload_port = commit.reload_port;
  fopts.shed_after_seconds = cli.shed_after;

  farm::StreamFarm farm(fopts);
  Result<farm::FarmReport> report =
      resume ? farm.Resume(std::move(specs)) : farm.Run(std::move(specs));
  if (!report.ok()) return Fail(report.status());

  const int workers =
      cli.workers > 0 ? cli.workers : HardwareThreads();
  if (json) {
    PrintFarmJson(*report, workers);
  } else {
    PrintFarmHuman(*report, workers);
  }
  return 0;
}

int Run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string file;
  std::string preset;
  double scale = 0.1;
  unsigned seed = 2000;
  bool resume = false;
  bool json = false;
  bool farm_mode = false;
  FarmCliOptions farm_cli;
  stream::PipelineOptions options;
  farm::CommitterOptions commit;  // --reload lands here

  auto next_value = [&](size_t* i) -> const std::string* {
    if (*i + 1 >= args.size()) return nullptr;
    return &args[++*i];
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const std::string* v = nullptr;
    if (arg == "--resume") {
      resume = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--file" && (v = next_value(&i))) {
      file = *v;
    } else if (arg == "--preset" && (v = next_value(&i))) {
      preset = *v;
    } else if (arg == "--scale" && (v = next_value(&i))) {
      scale = std::atof(v->c_str());
    } else if (arg == "--seed" && (v = next_value(&i))) {
      seed = static_cast<unsigned>(std::atoi(v->c_str()));
    } else if (arg == "--queue-capacity" && (v = next_value(&i))) {
      options.queue_capacity = std::atoi(v->c_str());
    } else if (arg == "--threads" && (v = next_value(&i))) {
      options.signature_threads = std::atoi(v->c_str());
    } else if (arg == "--checkpoint-every" && (v = next_value(&i))) {
      options.checkpoint_every_shots = std::atoi(v->c_str());
    } else if (arg == "--checkpoint-seconds" && (v = next_value(&i))) {
      options.checkpoint_every_media_seconds = std::atof(v->c_str());
    } else if (arg == "--publish-to" && (v = next_value(&i))) {
      options.publish_dir = *v;
    } else if (arg == "--reload" && (v = next_value(&i))) {
      size_t colon = v->rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "vdbstream: --reload wants HOST:PORT\n";
        return Usage();
      }
      commit.reload_host = v->substr(0, colon);
      commit.reload_port = std::atoi(v->c_str() + colon + 1);
    } else if (arg == "--streams" && (v = next_value(&i))) {
      farm_cli.streams = std::atoi(v->c_str());
      farm_mode = true;
    } else if (arg == "--preset-mix" && (v = next_value(&i))) {
      for (const std::string& p : StrSplit(*v, ',')) {
        if (!p.empty()) farm_cli.preset_mix.push_back(p);
      }
      farm_mode = true;
    } else if (arg == "--weights" && (v = next_value(&i))) {
      for (const std::string& w : StrSplit(*v, ',')) {
        if (!w.empty()) farm_cli.weights.push_back(std::atoi(w.c_str()));
      }
    } else if (arg == "--farm-workers" && (v = next_value(&i))) {
      farm_cli.workers = std::atoi(v->c_str());
    } else if (arg == "--max-streams" && (v = next_value(&i))) {
      farm_cli.max_streams = std::atoi(v->c_str());
    } else if (arg == "--target-fps" && (v = next_value(&i))) {
      farm_cli.target_fps = std::atof(v->c_str());
    } else if (arg == "--shed-after" && (v = next_value(&i))) {
      farm_cli.shed_after = std::atof(v->c_str());
    } else {
      std::cerr << "vdbstream: unknown or incomplete argument '" << arg
                << "'\n";
      return Usage();
    }
  }

  if (farm_mode) {
    if (!file.empty()) {
      std::cerr << "vdbstream: farm mode streams presets, not --file\n";
      return Usage();
    }
    return RunFarm(farm_cli, preset, scale > 0 ? scale : 0.1, seed, options,
                   commit, resume, json);
  }

  if (file.empty() == preset.empty()) {
    std::cerr << "vdbstream: exactly one of --file / --preset is required\n";
    return Usage();
  }

  std::unique_ptr<stream::FrameSource> source;
  if (!file.empty()) {
    Result<std::unique_ptr<stream::FrameSource>> opened =
        stream::OpenVideoFileSource(file);
    if (!opened.ok()) return Fail(opened.status());
    source = std::move(*opened);
  } else {
    Result<Video> video = PresetVideo(preset, scale > 0 ? scale : 0.1, seed);
    if (!video.ok()) return Fail(video.status());
    source = stream::MakeVideoFrameSource(std::move(*video));
  }

  // A solo run publishes through the same Committer a farm's tenants share.
  std::optional<farm::Committer> committer;
  if (!options.publish_dir.empty()) {
    commit.database = options.database;
    commit.dir = options.publish_dir;
    committer.emplace(commit);
    committer->Init();
    options.publish = [&committer](const CatalogEntry& entry) {
      return committer->Publish(entry);
    };
  }

  stream::Pipeline pipeline(options);
  Result<stream::PipelineResult> result =
      resume ? pipeline.Resume(source.get()) : pipeline.Run(source.get());
  if (!result.ok()) return Fail(result.status());

  if (json) {
    PrintJson(result->report);
  } else {
    PrintHuman(source->name(), result->report);
  }
  return 0;
}

}  // namespace
}  // namespace vdb

int main(int argc, char** argv) { return vdb::Run(argc, argv); }
