// End-to-end tests of the streaming ingest pipeline: byte-identical
// equivalence with batch ingest across every Table-5 preset, the bounded
// memory high-water guarantee, checkpointed live publishes with mid-ingest
// server queries, and cancellation semantics.

#include "stream/pipeline.h"

#include <unistd.h>

#include <cctype>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_io.h"
#include "core/video_database.h"
#include "farm/committer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/catalog_store.h"
#include "stream/frame_source.h"
#include "synth/presets.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "util/binary_io.h"
#include "util/fs.h"

namespace vdb {
namespace stream {
namespace {

constexpr double kScale = 0.06;
constexpr uint64_t kSeed = 5;

// The serialized form of an entry is the equivalence currency: it is what
// the store persists and what queries are answered from, and the codec
// canonicalises the one intended difference between the two paths (batch
// keeps signature lines in memory, streaming never materialises them).
std::string EntryBytes(const CatalogEntry& entry) {
  BinaryWriter w;
  SerializeCatalogEntry(entry, &w);
  return w.TakeBuffer();
}

std::string FreshDir(const std::string& tag) {
  std::string dir =
      testing::TempDir() + "/stream_" + std::to_string(getpid()) + "_" + tag;
  Result<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      std::remove((dir + "/" + name).c_str());
    }
    std::remove(dir.c_str());
  }
  return dir;
}

// Points `options` at a Committer over `commit.dir` — the publish path
// every publishing caller wires. The committer must outlive the run.
std::unique_ptr<farm::Committer> PublishThrough(farm::CommitterOptions commit,
                                                PipelineOptions* options) {
  options->publish_dir = commit.dir;
  auto committer = std::make_unique<farm::Committer>(std::move(commit));
  committer->Init();
  farm::Committer* raw = committer.get();
  options->publish = [raw](const CatalogEntry& entry) {
    return raw->Publish(entry);
  };
  return committer;
}

Result<PipelineResult> StreamVideo(const Video& video,
                                   PipelineOptions options) {
  std::unique_ptr<FrameSource> source = MakeVideoFrameSource(video);
  Pipeline pipeline(std::move(options));
  return pipeline.Run(source.get());
}

class StreamingEquivalenceTest : public testing::TestWithParam<int> {};

// The acceptance bar: streaming and batch ingest of the same clip must be
// bit-identical — shots, features, statistics, and scene tree — for every
// Table-5 preset, with the signature stage fanned out (out-of-order
// completion exercises the SBD reorder buffer).
TEST_P(StreamingEquivalenceTest, StreamedEntryIsByteIdenticalToBatch) {
  // Table5Profiles() returns by value — copy, don't bind a reference into
  // the destroyed temporary.
  const ClipProfile profile =
      Table5Profiles()[static_cast<size_t>(GetParam())];
  Storyboard board = MakeStoryboardFromProfile(profile, kScale, kSeed);
  const Video& video = testsupport::CachedRender(board).video;

  VideoDatabase batch;
  Result<int> id = batch.Ingest(video);
  ASSERT_TRUE(id.ok()) << id.status();
  const CatalogEntry* expected = batch.GetEntry(*id).value();

  PipelineOptions options;
  options.queue_capacity = 4;
  options.signature_threads = 3;
  Result<PipelineResult> result = StreamVideo(video, options);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->report.frames, video.frame_count());
  EXPECT_EQ(result->report.shots,
            static_cast<int>(expected->shots.size()));
  EXPECT_EQ(EntryBytes(result->entry), EntryBytes(*expected));
}

INSTANTIATE_TEST_SUITE_P(
    AllTable5Clips, StreamingEquivalenceTest,
    testing::Range(0, static_cast<int>(Table5Profiles().size())),
    [](const testing::TestParamInfo<int>& info) {
      std::string name = Table5Profiles()[static_cast<size_t>(
                             info.param)].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Variance-index rows must come out identical whether shots arrive from
// batch ingest or from restored streaming entries.
TEST(StreamPipelineTest, IndexRowsMatchBatchIngest) {
  std::vector<Video> videos;
  for (int i = 0; i < 4; ++i) {
    Storyboard board = MakeStoryboardFromProfile(
        Table5Profiles()[static_cast<size_t>(i)], kScale, kSeed);
    videos.push_back(testsupport::CachedRender(board).video);
  }

  VideoDatabase batch;
  for (const Video& video : videos) {
    ASSERT_TRUE(batch.Ingest(video).ok());
  }

  VideoDatabase streamed;
  for (const Video& video : videos) {
    Result<PipelineResult> result = StreamVideo(video, PipelineOptions());
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(streamed.Restore(std::move(result->entry)).ok());
  }

  ASSERT_EQ(streamed.index().size(), batch.index().size());
  for (int i = 0; i < batch.index().size(); ++i) {
    const IndexEntry& a = batch.index().entries()[static_cast<size_t>(i)];
    const IndexEntry& b = streamed.index().entries()[static_cast<size_t>(i)];
    EXPECT_EQ(a.video_id, b.video_id) << "row " << i;
    EXPECT_EQ(a.shot_index, b.shot_index) << "row " << i;
    EXPECT_EQ(a.var_ba, b.var_ba) << "row " << i;
    EXPECT_EQ(a.var_oa, b.var_oa) << "row " << i;
  }
}

// The memory high-water guarantee: decoded frames alive at once can never
// exceed queue_capacity (the decode queue) + signature_threads (frames
// being reduced) + 1 (the frame the decoder holds while blocked pushing).
TEST(StreamPipelineTest, FramesInFlightBoundedByQueueDepth) {
  const Video& video =
      testsupport::CachedRender(TenShotStoryboard()).video;
  PipelineOptions options;
  options.queue_capacity = 2;
  options.signature_threads = 2;
  Result<PipelineResult> result = StreamVideo(video, options);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GT(result->report.max_frames_in_flight, 0);
  EXPECT_LE(result->report.max_frames_in_flight,
            options.queue_capacity + options.signature_threads + 1);
  for (const StageReport& stage : result->report.stages) {
    EXPECT_LE(stage.queue_high_water, options.queue_capacity)
        << stage.name;
  }
  EXPECT_EQ(result->report.shots, 10);
}

TEST(StreamPipelineTest, CadenceWithoutPublishDirIsRejected) {
  const Video& video =
      testsupport::CachedRender(TenShotStoryboard()).video;
  PipelineOptions options;
  options.checkpoint_every_shots = 2;
  Result<PipelineResult> result = StreamVideo(video, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamPipelineTest, EmptySourceFailsLikeBatchIngest) {
  Video empty("nothing", 30.0);
  Video one_frame("tiny", 30.0);
  one_frame.AppendFrame(Frame(160, 120));
  // Geometry cannot even be computed for a 0x0 source.
  Result<PipelineResult> result = StreamVideo(empty, PipelineOptions());
  EXPECT_FALSE(result.ok());
  // A single-frame clip streams into a single one-frame shot.
  Result<PipelineResult> tiny = StreamVideo(one_frame, PipelineOptions());
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(tiny->report.shots, 1);
  EXPECT_EQ(tiny->entry.frame_count, 1);
}

// Checkpointed live publish: every N closed shots the partial catalog is
// published as a store generation, the serving layer is reloaded, and a
// client querying *mid-ingest* sees the clip with however many shots the
// previous checkpoint covered — the paper's browsing/indexing workflow
// running while segmentation is still under way.
TEST(StreamPipelineTest, CheckpointsPublishLiveAndServerSeesMidIngest) {
  const std::string dir = FreshDir("live");

  // Seed the store with an unrelated video so the server has something to
  // start from, and so publishes must carry the store's other entries
  // forward.
  {
    VideoDatabase base;
    const SyntheticVideo& friends =
        testsupport::CachedRender(FriendsStoryboard());
    ASSERT_TRUE(base.Ingest(friends.video).ok());
    ASSERT_TRUE(store::SaveDatabaseToStore(base, dir).ok());
  }

  serve::Server server;
  ASSERT_TRUE(server.Start({dir}).ok());

  std::mutex seen_mu;
  std::vector<int> server_video_counts;  // sampled at each checkpoint
  PipelineOptions options;
  options.checkpoint_every_shots = 2;
  farm::CommitterOptions commit;
  commit.dir = dir;
  commit.reload_host = "127.0.0.1";
  commit.reload_port = server.port();
  std::unique_ptr<farm::Committer> committer =
      PublishThrough(commit, &options);
  options.checkpoint_callback = [&](uint64_t /*generation*/, int /*shots*/) {
    // This runs once the committer has saved and reloaded this generation,
    // so the server already reflects the checkpoint just published.
    std::lock_guard<std::mutex> lock(seen_mu);
    server_video_counts.push_back(server.snapshot()->video_count());
  };

  const Video& video =
      testsupport::CachedRender(TenShotStoryboard()).video;
  std::unique_ptr<FrameSource> source = MakeVideoFrameSource(video);
  Pipeline pipeline(options);
  Result<PipelineResult> result = pipeline.Run(source.get());
  ASSERT_TRUE(result.ok()) << result.status();

  // 10 shots at every-2 cadence: checkpoints after shots 2,4,6,8,10 plus
  // the final publish (the shot-10 checkpoint already covered the clip, so
  // the final publish is a cheap segment-reusing generation).
  EXPECT_GE(result->report.checkpoints, 5);
  EXPECT_EQ(result->report.reload_failures, 0);
  EXPECT_EQ(result->report.reloads_ok, result->report.checkpoints);

  // From the first checkpoint on, the mid-ingest server already served
  // the streaming clip alongside the base video.
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    ASSERT_GE(server_video_counts.size(), 2u);
    for (size_t i = 0; i < server_video_counts.size(); ++i) {
      EXPECT_EQ(server_video_counts[i], 2) << "checkpoint " << i;
    }
  }

  // After the run the served snapshot has the complete clip, identical to
  // a batch ingest of the same video. The committer orders video ids by
  // name, so the clip is found by name rather than by position.
  std::shared_ptr<const VideoDatabase> snapshot = server.snapshot();
  ASSERT_EQ(snapshot->video_count(), 2);
  VideoDatabase batch;
  Result<int> id = batch.Ingest(video);
  ASSERT_TRUE(id.ok());
  const CatalogEntry* expected = batch.GetEntry(*id).value();
  const CatalogEntry* served = nullptr;
  for (int v = 0; v < snapshot->video_count(); ++v) {
    const CatalogEntry* entry = snapshot->GetEntry(v).value();
    if (entry->name == expected->name) served = entry;
  }
  ASSERT_NE(served, nullptr) << "streamed clip missing from the snapshot";
  EXPECT_EQ(EntryBytes(*served), EntryBytes(*expected));

  server.Stop();
}

// Cancelling mid-stream abandons the open shot and everything after it:
// the run reports cancelled, returns no entry, and the store still serves
// exactly the last checkpoint generation.
TEST(StreamPipelineTest, CancelMidShotLeavesStoreAtPreviousCheckpoint) {
  const std::string dir = FreshDir("cancel");
  const Video& video =
      testsupport::CachedRender(TenShotStoryboard()).video;

  PipelineOptions options;
  options.checkpoint_every_shots = 2;
  farm::CommitterOptions commit;
  commit.dir = dir;
  std::unique_ptr<farm::Committer> committer =
      PublishThrough(commit, &options);

  std::mutex mu;
  uint64_t last_generation = 0;
  int last_shots = 0;
  int shots_seen = 0;
  Pipeline* cancel_target = nullptr;
  options.checkpoint_callback = [&](uint64_t generation, int shots) {
    std::lock_guard<std::mutex> lock(mu);
    last_generation = generation;
    last_shots = shots;
  };
  options.shot_callback = [&](const Shot&) {
    std::lock_guard<std::mutex> lock(mu);
    if (++shots_seen == 5) cancel_target->Cancel();
  };

  Pipeline pipeline(options);
  cancel_target = &pipeline;
  std::unique_ptr<FrameSource> source = MakeVideoFrameSource(video);
  Result<PipelineResult> result = pipeline.Run(source.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.cancelled);
  EXPECT_EQ(result->entry.frame_count, 0);  // no entry from a cancelled run

  // Shots 1..5 were closed; checkpoints ran after shots 2 and 4. The store
  // must sit at exactly the shot-4 generation — the cancelled tail never
  // published.
  EXPECT_EQ(result->report.checkpoints, 2);
  EXPECT_EQ(last_shots, 4);
  store::CatalogStore store(dir);
  Result<store::Manifest> manifest = store.CurrentManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->generation, last_generation);
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open();
  ASSERT_TRUE(opened.ok()) << opened.status();
  const CatalogEntry* entry = (*opened)->GetEntry(0).value();
  EXPECT_EQ(static_cast<int>(entry->shots.size()), 4);
  EXPECT_EQ(entry->frame_count, entry->shots.back().end_frame + 1);
}

}  // namespace
}  // namespace stream
}  // namespace vdb
