// Multi-tenant ingest farm capacity: how many concurrent streams one
// machine sustains, and at what per-core efficiency.
//
// Each benchmark run admits N copies of the same clip as N tenants of one
// StreamFarm (shared decode + signature workers, weighted-fair dispatch) and
// measures aggregate decoded-frame throughput. The headline counter is
// streams_sustainable_3fps = aggregate_fps / 3 — the paper's browsing
// scenario needs ~3 fps per live stream, so this is the machine's admission
// budget at that service level. fps_per_core divides by the hardware
// thread count to expose scheduling overhead as N grows: ideal scaling
// keeps it flat from N=1 to N=64.
//
// JSON alongside the other perf benches (the context records the build
// type as vdb_build_type):
//   ./bench_perf_farm --benchmark_format=json
// VDB_FARM_SCALE (0, 1] scales the storyboard (default 0.04).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "farm/farm.h"
#include "stream/frame_source.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace vdb {
namespace {

const Video& BenchVideo() {
  static const Video* video = [] {
    double scale = bench::EnvScale("VDB_FARM_SCALE", 0.04);
    Storyboard board =
        MakeStoryboardFromProfile(Table5Profiles()[2], scale, 11);
    SyntheticVideo sv = bench::OrDie(RenderStoryboard(board), "render");
    return new Video(std::move(sv.video));
  }();
  return *video;
}

// Arg(0) = concurrent streams. No publishing: this measures the compute
// path (decode and signature on the shared workers, SBD on each tenant's
// sequencer), the part that bounds how many live streams fit on the box.
void BM_FarmIngest(benchmark::State& state) {
  const Video& base = BenchVideo();
  const int streams = static_cast<int>(state.range(0));
  double aggregate_fps = 0.0;
  int64_t frames_total = 0;
  for (auto _ : state) {
    farm::FarmOptions options;
    options.max_streams = streams;
    options.queue_capacity = 4;
    farm::StreamFarm farm(options);

    std::vector<farm::StreamSpec> specs;
    specs.reserve(streams);
    for (int i = 0; i < streams; ++i) {
      Video copy = base;
      copy.set_name(StrFormat("%s#%d", base.name().c_str(), i));
      farm::StreamSpec spec;
      spec.name = copy.name();
      spec.source = stream::MakeVideoFrameSource(std::move(copy));
      specs.push_back(std::move(spec));
    }
    Result<farm::FarmReport> report = farm.Run(std::move(specs));
    if (!report.ok()) {
      bench::OrDie(Result<int>(report.status()), "farm run");
    }
    frames_total =
        static_cast<int64_t>(streams) * static_cast<int64_t>(base.frame_count());
    aggregate_fps = report->wall_seconds > 0
                        ? static_cast<double>(frames_total) / report->wall_seconds
                        : 0.0;
  }
  const double cores = static_cast<double>(HardwareThreads());
  state.counters["streams"] = static_cast<double>(streams);
  state.counters["frames_total"] = static_cast<double>(frames_total);
  state.counters["aggregate_fps"] = aggregate_fps;
  state.counters["fps_per_core"] = cores > 0 ? aggregate_fps / cores : 0.0;
  // The browsing scenario's admission budget: live streams at 3 fps each.
  state.counters["streams_sustainable_3fps"] = aggregate_fps / 3.0;
}

BENCHMARK(BM_FarmIngest)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vdb

int main(int argc, char** argv) {
  benchmark::AddCustomContext("vdb_build_type", vdb::bench::VdbBuildType());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
