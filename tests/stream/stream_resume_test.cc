// The crash/resume acceptance sweep: kill a checkpointing streaming ingest
// at every store fault point in turn (the store-layer crash harness), then
// Resume from whatever generation survived and require the final catalog to
// be byte-identical to an uninterrupted run's. This is the property that
// makes mid-ingest publishing safe: a crash never costs more than the work
// since the last checkpoint, and never changes the answer.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_io.h"
#include "core/video_database.h"
#include "farm/committer.h"
#include "store/catalog_store.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "util/binary_io.h"
#include "util/fs.h"
#include "video/video_io.h"

namespace vdb {
namespace stream {
namespace {

constexpr double kScale = 0.06;
constexpr uint64_t kSeed = 5;
constexpr int kShotsPerCheckpoint = 3;

std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/stream_resume_" +
                    std::to_string(getpid()) + "_" + tag;
  Result<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      std::remove((dir + "/" + name).c_str());
    }
    std::remove(dir.c_str());
  }
  return dir;
}

// Content fingerprint of a store: every entry's serialized bytes in id
// order. Deliberately excludes the generation number — how many publishes
// it took to get there is exactly what must NOT matter.
std::string StoreFingerprint(const std::string& dir) {
  store::CatalogStore store(dir);
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open();
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return "";
  std::string out;
  for (int id = 0; id < (*opened)->video_count(); ++id) {
    BinaryWriter w;
    SerializeCatalogEntry(*(*opened)->GetEntry(id).value(), &w);
    out += w.TakeBuffer();
  }
  return out;
}

class StreamResumeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Storyboard board =
        MakeStoryboardFromProfile(Table5Profiles()[3], kScale, kSeed);
    video_ = new Video(testsupport::CachedRender(board).video);
  }
  static void TearDownTestSuite() {
    delete video_;
    video_ = nullptr;
  }

  // Runs (or resumes) `source` into `dir`, publishing through a fresh
  // Committer the way every publishing caller does. `hook` is the store
  // fault hook the committer forwards to each Save.
  static Result<PipelineResult> Ingest(const std::string& dir,
                                       FrameSource* source, bool resume,
                                       FaultHook hook = nullptr,
                                       VideoDatabaseOptions database = {}) {
    farm::CommitterOptions commit;
    commit.database = database;
    commit.dir = dir;
    commit.fault_hook = std::move(hook);
    farm::Committer committer(commit);
    committer.Init();
    PipelineOptions options;
    options.database = database;
    options.publish_dir = dir;
    options.checkpoint_every_shots = kShotsPerCheckpoint;
    options.publish = [&committer](const CatalogEntry& entry) {
      return committer.Publish(entry);
    };
    Pipeline pipeline(std::move(options));
    return resume ? pipeline.Resume(source) : pipeline.Run(source);
  }

  static Result<PipelineResult> RunInto(const std::string& dir,
                                        FaultHook hook = nullptr) {
    std::unique_ptr<FrameSource> source = MakeVideoFrameSource(*video_);
    return Ingest(dir, source.get(), /*resume=*/false, std::move(hook));
  }

  static Result<PipelineResult> ResumeInto(const std::string& dir) {
    std::unique_ptr<FrameSource> source = MakeVideoFrameSource(*video_);
    return Ingest(dir, source.get(), /*resume=*/true);
  }

  static Video* video_;
};

Video* StreamResumeTest::video_ = nullptr;

// Kill the ingest at every durability-relevant fault point of every
// checkpoint publish; Resume must converge to the uninterrupted result.
TEST_F(StreamResumeTest, KillAtEveryFaultPointThenResumeConverges) {
  // The reference: one uninterrupted checkpointing run.
  const std::string clean_dir = FreshDir("clean");
  Result<PipelineResult> clean = RunInto(clean_dir);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GE(clean->report.shots, 2 * kShotsPerCheckpoint)
      << "corpus too small: need at least two checkpoints";
  ASSERT_GE(clean->report.checkpoints, 2);
  const std::string want = StoreFingerprint(clean_dir);
  ASSERT_FALSE(want.empty());

  // Count the fault points one full run consults (hook never fires).
  int total_points = 0;
  ASSERT_TRUE(RunInto(FreshDir("probe"), [&total_points](std::string_view) {
                ++total_points;
                return true;
              }).ok());
  ASSERT_GT(total_points, 0);

  for (int kill = 0; kill < total_points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    const std::string dir = FreshDir("kill_" + std::to_string(kill));

    // The doomed run: the hook simulates a process kill immediately before
    // fault point `kill`, which surfaces as an IO error from the publish
    // and aborts the pipeline right there.
    {
      int seen = 0;
      Result<PipelineResult> doomed =
          RunInto(dir, [&seen, kill](std::string_view) {
            return seen++ != kill;
          });
      ASSERT_FALSE(doomed.ok()) << "kill point " << kill << " never fired";
    }

    // Resume with a healthy store. A kill inside the very first publish
    // can leave no loadable generation at all — then resume reports the
    // missing checkpoint and a fresh run is the recovery path, exactly as
    // a production supervisor would retry.
    Result<PipelineResult> resumed = ResumeInto(dir);
    if (!resumed.ok()) {
      Result<PipelineResult> fresh = RunInto(dir);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(fresh->report.resumed_from_frame, 0);
    } else {
      // A real resume must have skipped at least the first checkpoint's
      // worth of work and must re-analyse strictly less than the clip.
      EXPECT_GT(resumed->report.resumed_from_frame, 0);
      EXPECT_GE(resumed->report.resumed_shots, 1);
      EXPECT_EQ(resumed->report.frames + resumed->report.resumed_from_frame,
                video_->frame_count());
    }
    EXPECT_EQ(StoreFingerprint(dir), want);
  }
}

// Resume against a store that has no checkpoint of this clip is a clean
// NotFound, and resume without a publish_dir is rejected outright.
TEST_F(StreamResumeTest, ResumeErrorsAreTyped) {
  {
    std::unique_ptr<FrameSource> source = MakeVideoFrameSource(*video_);
    Pipeline pipeline(PipelineOptions{});
    Result<PipelineResult> result = pipeline.Resume(source.get());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Result<PipelineResult> result = ResumeInto(FreshDir("empty"));
    ASSERT_FALSE(result.ok());
  }
  {
    VideoDatabaseOptions gradual;
    gradual.detector.detect_gradual = true;
    std::unique_ptr<FrameSource> source = MakeVideoFrameSource(*video_);
    Result<PipelineResult> result =
        Ingest(FreshDir("gradual"), source.get(), /*resume=*/true,
               /*hook=*/nullptr, gradual);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

// Resuming a run that already completed re-publishes the same content
// without touching a single frame.
TEST_F(StreamResumeTest, ResumeOfCompletedRunIsANoOpRepublish) {
  const std::string dir = FreshDir("done");
  Result<PipelineResult> first = RunInto(dir);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string want = StoreFingerprint(dir);

  Result<PipelineResult> again = ResumeInto(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->report.frames, 0);
  EXPECT_EQ(again->report.resumed_from_frame, video_->frame_count());
  EXPECT_EQ(again->report.resumed_shots, first->report.shots);
  EXPECT_EQ(StoreFingerprint(dir), want);
}

// Regression: the same no-op republish must work through the *file*
// source. The underlying VideoFileReader cannot seek to end-of-file, so
// the wrapper has to honour the FrameSource contract (seek to exactly
// frame_count = positioned at end) itself.
TEST_F(StreamResumeTest, ResumeOfCompletedRunWorksThroughFileSource) {
  const std::string dir = FreshDir("done_file");
  const std::string path = testing::TempDir() + "/stream_resume_clip_" +
                           std::to_string(getpid()) + ".vdb";
  ASSERT_TRUE(WriteVideoFile(*video_, path).ok());

  Result<std::unique_ptr<FrameSource>> source = OpenVideoFileSource(path);
  ASSERT_TRUE(source.ok()) << source.status();
  Result<PipelineResult> ran = Ingest(dir, source->get(), /*resume=*/false);
  ASSERT_TRUE(ran.ok()) << ran.status();
  const std::string want = StoreFingerprint(dir);

  Result<std::unique_ptr<FrameSource>> again = OpenVideoFileSource(path);
  ASSERT_TRUE(again.ok()) << again.status();
  Result<PipelineResult> resumed = Ingest(dir, again->get(), /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.frames, 0);
  EXPECT_EQ(resumed->report.resumed_from_frame, video_->frame_count());
  EXPECT_EQ(StoreFingerprint(dir), want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stream
}  // namespace vdb
