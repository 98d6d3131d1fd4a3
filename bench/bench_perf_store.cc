// The segmented crash-safe catalog store (store/catalog_store.h) holding the
// 22 Table-5 presets. BM_ColdOpenStore times the read path: one manifest
// read plus a checksummed read and decode per segment.
// BM_IncrementalPublish times the write path: republishing 22 videos with
// one change rewrites one segment plus the manifest, not 22 segments.
// BM_CommitterPublishOneChanged/N times the live-ingest publish: one
// farm::Committer::Publish of one changed video into a store of N videos
// (the presets, renamed and re-tagged), after an untimed Init.
//
// JSON alongside the other perf benches:
//   ./bench_perf_store --benchmark_format=json
//   ./bench_perf_store --benchmark_out=store.json --benchmark_out_format=json
// VDB_STORE_SCALE (0, 1] scales the storyboards (default 0.03).

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/video_database.h"
#include "farm/committer.h"
#include "store/catalog_store.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace vdb {
namespace {

// Per-process scratch directories, so concurrent bench runs cannot
// collide; main() removes both after the run.
std::string ScratchDir() {
  return StrFormat("/tmp/vdb_bench_store_%d", static_cast<int>(getpid()));
}
std::string PublishDir() {
  return StrFormat("/tmp/vdb_bench_store_pub_%d", static_cast<int>(getpid()));
}

// The 22 Table-5 presets ingested once and saved as a store under
// ScratchDir().
struct Fixture {
  std::unique_ptr<VideoDatabase> db;
  std::string store_dir;
  int64_t total_shots = 0;
};

const Fixture& SavedCatalogs() {
  static const Fixture* fixture = [] {
    double scale = bench::EnvScale("VDB_STORE_SCALE", 0.03);
    auto* f = new Fixture();
    f->db = std::make_unique<VideoDatabase>();
    std::vector<Video> videos;
    for (const ClipProfile& profile : Table5Profiles()) {
      Storyboard board = MakeStoryboardFromProfile(profile, scale, 3);
      SyntheticVideo sv =
          bench::OrDie(RenderStoryboard(board), "render preset");
      videos.push_back(std::move(sv.video));
    }
    BatchIngestResult r = f->db->IngestBatch(videos, IngestOptions{});
    if (!r.ok()) bench::OrDie(Result<int>(r.first_error), "ingest presets");
    for (int id = 0; id < f->db->video_count(); ++id) {
      const CatalogEntry* entry =
          bench::OrDie(f->db->GetEntry(id), "get entry");
      f->total_shots += static_cast<int64_t>(entry->shots.size());
    }

    std::string scratch = ScratchDir();
    Status made = CreateDirIfMissing(scratch);
    if (!made.ok()) bench::OrDie(Result<int>(made), "create scratch dir");
    f->store_dir = scratch + "/table5.store";
    store::CatalogStore store(f->store_dir);
    bench::OrDie(store.Save(*f->db), "save store");
    return f;
  }();
  return *fixture;
}

void ReportShots(benchmark::State& state) {
  const Fixture& f = SavedCatalogs();
  state.SetItemsProcessed(state.iterations() * f.total_shots);
  state.counters["videos"] = static_cast<double>(f.db->video_count());
}

// Cold open of the segmented store: manifest walk + 22 segment reads, each
// with its own checksum verification.
void BM_ColdOpenStore(benchmark::State& state) {
  const Fixture& f = SavedCatalogs();
  for (auto _ : state) {
    store::CatalogStore store(f.store_dir);
    Result<std::unique_ptr<VideoDatabase>> db = store.Open();
    if (!db.ok()) state.SkipWithError(db.status().ToString().c_str());
    benchmark::DoNotOptimize((*db)->video_count());
  }
  ReportShots(state);
}
BENCHMARK(BM_ColdOpenStore)->Unit(benchmark::kMillisecond)->UseRealTime();

// Republish after touching one video's classification: the store writes
// one segment plus a manifest. Each iteration alternates the tag so every
// Save really publishes a change.
void BM_IncrementalPublish(benchmark::State& state) {
  const Fixture& f = SavedCatalogs();
  std::string dir = PublishDir();
  VideoDatabase db;
  for (int id = 0; id < f.db->video_count(); ++id) {
    const CatalogEntry* entry = bench::OrDie(f.db->GetEntry(id), "get entry");
    Result<int> copied = db.Restore(*entry);
    if (!copied.ok()) state.SkipWithError(copied.status().ToString().c_str());
  }
  store::CatalogStore store(dir);
  Result<store::SaveStats> base = store.Save(db);
  if (!base.ok()) state.SkipWithError(base.status().ToString().c_str());
  uint64_t toggle = 0;
  for (auto _ : state) {
    VideoClassification tag;
    tag.genre_ids = {static_cast<int>(1 + (toggle++ & 1))};
    tag.form_id = 0;
    Status tagged = db.SetClassification(0, tag);
    if (!tagged.ok()) state.SkipWithError(tagged.ToString().c_str());
    Result<store::SaveStats> stats = store.Save(db);
    if (!stats.ok()) state.SkipWithError(stats.status().ToString().c_str());
    if (stats.ok() && stats->segments_written != 1) {
      state.SkipWithError("expected exactly one segment rewritten");
    }
    benchmark::DoNotOptimize(stats->generation);
  }
  state.counters["segments_per_publish"] = 1;
}
BENCHMARK(BM_IncrementalPublish)->Unit(benchmark::kMillisecond)->UseRealTime();

// One checkpoint of live ingest: the committer publishes one changed
// video — a manifest of N refs and the generation's FRAMEINDEX — into a
// store of N videos it adopted with Init. Every iteration re-tags the
// same video, so each publish really writes one new segment.
void BM_CommitterPublishOneChanged(benchmark::State& state) {
  const Fixture& f = SavedCatalogs();
  const int videos = static_cast<int>(state.range(0));
  const int presets = f.db->video_count();
  const std::string dir = StrFormat("%s/committer-%d", PublishDir().c_str(),
                                    videos);
  CatalogEntry changed;
  int64_t frames = 0;
  {
    VideoDatabase db;
    for (int i = 0; i < videos; ++i) {
      CatalogEntry entry = *bench::OrDie(f.db->GetEntry(i % presets), "entry");
      entry.name = StrFormat("video-%04d", i);
      entry.classification.form_id = i / presets;
      frames += entry.frame_count;
      if (i == videos / 2) changed = entry;
      bench::OrDie(db.Restore(std::move(entry)), "restore entry");
    }
    Status made = CreateDirIfMissing(PublishDir());
    if (!made.ok()) bench::OrDie(Result<int>(made), "create publish dir");
    bench::OrDie(store::CatalogStore(dir).Save(db), "save base store");
  }
  farm::CommitterOptions options;
  options.dir = dir;
  farm::Committer committer(options);
  committer.Init();
  int tag = 1 << 20;
  for (auto _ : state) {
    changed.classification.form_id = tag++;
    Result<stream::PublishReceipt> receipt = committer.Publish(changed);
    if (!receipt.ok()) {
      state.SkipWithError(receipt.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(receipt->generation);
  }
  state.counters["videos"] = videos;
  state.counters["frames_per_video"] =
      static_cast<double>(frames) / static_cast<double>(videos);
}
BENCHMARK(BM_CommitterPublishOneChanged)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace vdb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::error_code ignored;
  std::filesystem::remove_all(vdb::ScratchDir(), ignored);
  std::filesystem::remove_all(vdb::PublishDir(), ignored);
  return 0;
}
