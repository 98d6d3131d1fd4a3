// Streaming vs. batch ingest: what live publishing buys and what it costs.
//
// The headline metric is latency-to-first-published-shot — how long after
// ingest starts a query service could first answer for this clip. Batch
// ingest can only publish when the whole clip is analysed; the streaming
// pipeline publishes at its first checkpoint. Peak RSS is measured per
// benchmark via /proc/self/clear_refs + VmHWM, showing the streaming
// pipeline's O(queue_depth x frame) working set against batch ingest's
// whole-clip buffer.
//
// JSON alongside the other perf benches:
//   ./bench_perf_stream --benchmark_format=json
//   ./bench_perf_stream --benchmark_out=stream.json --benchmark_out_format=json
// VDB_STREAM_SCALE (0, 1] scales the storyboard (default 0.06).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/video_database.h"
#include "farm/committer.h"
#include "store/catalog_store.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/fs.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vdb {
namespace {

const Video& BenchVideo() {
  static const Video* video = [] {
    double scale = bench::EnvScale("VDB_STREAM_SCALE", 0.06);
    Storyboard board =
        MakeStoryboardFromProfile(Table5Profiles()[2], scale, 11);
    SyntheticVideo sv = bench::OrDie(RenderStoryboard(board), "render");
    return new Video(std::move(sv.video));
  }();
  return *video;
}

std::string ScratchDir(const char* tag) {
  std::string dir = StrFormat("/tmp/vdb_bench_stream_%d_%s",
                              static_cast<int>(getpid()), tag);
  Result<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      std::remove((dir + "/" + name).c_str());
    }
    std::remove(dir.c_str());
  }
  return dir;
}

// Linux lets a process reset its high-water mark; with that, VmHWM becomes
// a per-measurement peak instead of a process-lifetime one.
void ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f != nullptr) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// Batch baseline: analyse the whole clip, then save the catalog to a
// store. The first shot becomes queryable only when everything is done, so
// first-publish latency equals total latency by construction.
void BM_BatchIngestThenPublish(benchmark::State& state) {
  const Video& video = BenchVideo();
  int64_t shots = 0;
  double peak_mb = 0.0;
  double first_publish_ms = 0.0;
  for (auto _ : state) {
    ResetPeakRss();
    Stopwatch clock;
    VideoDatabase db;
    Result<int> id = db.Ingest(video);
    if (!id.ok()) bench::OrDie(id, "ingest");
    store::CatalogStore store(ScratchDir("batch"));
    bench::OrDie(store.Save(db), "save");
    // Batch cannot publish early: the first shot becomes queryable only
    // once the whole clip is analysed and saved.
    first_publish_ms = clock.ElapsedMillis();
    peak_mb = PeakRssMb();
    shots = static_cast<int64_t>(db.GetEntry(*id).value()->shots.size());
  }
  state.counters["shots"] = static_cast<double>(shots);
  // Wall-clock rate (kIsRate would divide by CPU time, which understates
  // multi-threaded runs and overstates single-threaded ones).
  state.counters["shots_per_sec"] =
      static_cast<double>(shots) / (first_publish_ms / 1e3);
  state.counters["peak_rss_mb"] = peak_mb;
  state.counters["first_publish_ms"] = first_publish_ms;
}

// Streaming pipeline with live checkpoints. Arg(0) = shots per checkpoint;
// Arg(1) = signature worker threads.
void BM_StreamIngestCheckpointed(benchmark::State& state) {
  const Video& video = BenchVideo();
  double first_publish_ms = 0.0;
  double first_shot_ms = 0.0;
  double total_seconds = 0.0;
  double peak_mb = 0.0;
  int64_t shots = 0;
  for (auto _ : state) {
    ResetPeakRss();
    farm::CommitterOptions commit;
    commit.dir = ScratchDir("stream");
    farm::Committer committer(commit);
    committer.Init();
    stream::PipelineOptions options;
    options.publish_dir = commit.dir;
    options.publish = [&committer](const CatalogEntry& entry) {
      return committer.Publish(entry);
    };
    options.checkpoint_every_shots = static_cast<int>(state.range(0));
    options.signature_threads = static_cast<int>(state.range(1));
    options.queue_capacity = 8;
    std::unique_ptr<stream::FrameSource> source =
        stream::MakeVideoFrameSource(video);
    stream::Pipeline pipeline(std::move(options));
    Result<stream::PipelineResult> result = pipeline.Run(source.get());
    if (!result.ok()) {
      bench::OrDie(Result<int>(result.status()), "stream run");
    }
    peak_mb = PeakRssMb();
    shots = result->report.shots;
    first_publish_ms = 1e3 * result->report.first_publish_seconds;
    first_shot_ms = 1e3 * result->report.first_shot_seconds;
    total_seconds = result->report.total_seconds;
  }
  state.counters["shots"] = static_cast<double>(shots);
  state.counters["shots_per_sec"] =
      total_seconds > 0 ? static_cast<double>(shots) / total_seconds : 0.0;
  state.counters["peak_rss_mb"] = peak_mb;
  state.counters["first_shot_ms"] = first_shot_ms;
  state.counters["first_publish_ms"] = first_publish_ms;
}

BENCHMARK(BM_BatchIngestThenPublish)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamIngestCheckpointed)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vdb

BENCHMARK_MAIN();
