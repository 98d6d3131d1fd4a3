// Frame-index retrieval quality and format tests: planted-query recall on
// a synthetic catalog (the acceptance bar: >= 0.99), hit-order
// determinism, and byte-exact serialization.

#include "index/frame_index.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/video_database.h"
#include "synth/queries.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "util/random.h"

namespace vdb {
namespace index {
namespace {

// A catalog whose shots are all filmed in distinct worlds (revisit_prob 0),
// so a planted query has one unambiguous right answer.
ClipProfile DistinctWorldProfile(const std::string& name) {
  ClipProfile profile;
  profile.name = name;
  profile.duration_seconds = 100.0;
  profile.shot_changes = 20;
  profile.num_scenes = 64;     // more scenes than shots: never reuse one
  profile.revisit_prob = 0.0;
  profile.pan_prob = 0.3;
  profile.noise_stddev = 0.0;  // quantization noise only
  return profile;
}

class FrameIndexRecallTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new VideoDatabase();
    for (int v = 0; v < 3; ++v) {
      Storyboard board = MakeStoryboardFromProfile(
          DistinctWorldProfile("recall-clip-" + std::to_string(v)),
          /*scale=*/1.0, /*seed=*/7000 + static_cast<uint64_t>(v));
      const SyntheticVideo& rendered = testsupport::CachedRender(board);
      ASSERT_TRUE(db_->Ingest(rendered.video).ok());
    }
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static VideoDatabase* db_;
};

VideoDatabase* FrameIndexRecallTest::db_ = nullptr;

TEST_F(FrameIndexRecallTest, PlantedQueryRecallAtLeast99Percent) {
  FrameIndex index = FrameIndex::Build(*db_);
  ASSERT_GT(index.shot_count(), 10);
  std::vector<synth::PlantedQuery> queries =
      synth::PlantQueries(*db_, 200, /*seed=*/42, index.options().tokenizer);
  ASSERT_EQ(queries.size(), 200u);

  int hits_at_5 = 0;
  for (const synth::PlantedQuery& query : queries) {
    FrameQueryStats stats;
    std::vector<FrameHit> hits =
        index.QuerySignature(query.signature, /*top_k=*/5, &stats);
    EXPECT_GT(stats.query_tokens, 0u);
    for (const FrameHit& hit : hits) {
      if (hit.video_id == query.video_id &&
          hit.shot_index == query.shot_index) {
        ++hits_at_5;
        break;
      }
    }
  }
  double recall = hits_at_5 / 200.0;
  EXPECT_GE(recall, 0.99) << "recall@5 = " << recall;
}

TEST_F(FrameIndexRecallTest, SampledFrameScoresExactlyOne) {
  // A sketch-sampled frame's token set is a subset of its shot's sketch by
  // construction, so the true shot's score is exactly 1.0.
  FrameIndex index = FrameIndex::Build(*db_);
  std::vector<synth::PlantedQuery> queries =
      synth::PlantQueries(*db_, 20, /*seed=*/99, index.options().tokenizer);
  for (const synth::PlantedQuery& query : queries) {
    std::vector<FrameHit> hits =
        index.QuerySignature(query.signature, /*top_k=*/1);
    ASSERT_FALSE(hits.empty());
    EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
  }
}

TEST_F(FrameIndexRecallTest, HitOrderIsATotalOrder) {
  FrameIndex index = FrameIndex::Build(*db_);
  std::vector<synth::PlantedQuery> queries =
      synth::PlantQueries(*db_, 10, /*seed=*/3, index.options().tokenizer);
  for (const synth::PlantedQuery& query : queries) {
    std::vector<FrameHit> hits =
        index.QuerySignature(query.signature, /*top_k=*/50);
    for (size_t i = 1; i < hits.size(); ++i) {
      const FrameHit& a = hits[i - 1];
      const FrameHit& b = hits[i];
      bool ordered = a.score > b.score ||
                     (a.score == b.score && a.video_id < b.video_id) ||
                     (a.score == b.score && a.video_id == b.video_id &&
                      a.shot_index < b.shot_index);
      EXPECT_TRUE(ordered) << "hits " << i - 1 << " and " << i;
    }
  }
}

TEST_F(FrameIndexRecallTest, SerializationIsByteExactAndLossless) {
  FrameIndex index = FrameIndex::Build(*db_);
  std::string first = index.Serialize();
  std::string second = FrameIndex::Build(*db_).Serialize();
  EXPECT_EQ(first, second) << "same catalog must serialize identically";

  Result<FrameIndex> restored = FrameIndex::Deserialize(first);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->posting_count(), index.posting_count());
  EXPECT_EQ(restored->shot_count(), index.shot_count());
  EXPECT_EQ(restored->video_count(), index.video_count());
  EXPECT_EQ(restored->Serialize(), first);

  // The restored index answers identically.
  std::vector<synth::PlantedQuery> queries =
      synth::PlantQueries(*db_, 20, /*seed=*/5, index.options().tokenizer);
  for (const synth::PlantedQuery& query : queries) {
    FrameQueryStats original_stats, restored_stats;
    std::vector<FrameHit> original_hits =
        index.QuerySignature(query.signature, 10, &original_stats);
    std::vector<FrameHit> restored_hits =
        restored->QuerySignature(query.signature, 10, &restored_stats);
    ASSERT_EQ(original_hits.size(), restored_hits.size());
    for (size_t i = 0; i < original_hits.size(); ++i) {
      EXPECT_EQ(original_hits[i].video_id, restored_hits[i].video_id);
      EXPECT_EQ(original_hits[i].shot_index, restored_hits[i].shot_index);
      EXPECT_DOUBLE_EQ(original_hits[i].score, restored_hits[i].score);
    }
    EXPECT_EQ(original_stats.candidates, restored_stats.candidates);
    EXPECT_EQ(original_stats.probed, restored_stats.probed);
  }
}

TEST_F(FrameIndexRecallTest, DeserializeRejectsCorruption) {
  FrameIndex index = FrameIndex::Build(*db_);
  std::string payload = index.Serialize();
  // Truncations at every region boundary plus a mid-payload cut.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{16}, payload.size() / 2,
                     payload.size() - 1}) {
    EXPECT_FALSE(
        FrameIndex::Deserialize(std::string_view(payload.data(), cut)).ok())
        << "cut at " << cut;
  }
  // Posting order is validated: swap two postings' token bytes.
  std::string garbled = payload;
  if (garbled.size() > 64) {
    std::swap(garbled[40], garbled[56]);
    Result<FrameIndex> r = FrameIndex::Deserialize(garbled);
    // Either rejected outright, or decoded into something self-consistent;
    // it must never crash. (Most mutations break the sorted-unique check.)
    (void)r;
  }
}

TEST(FrameIndexTest, EmptyIndexAnswersEmpty) {
  FrameIndex index;
  index.Freeze();
  FrameQueryStats stats;
  std::vector<FrameHit> hits = index.Query({1, 2, 3}, 5, &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.query_tokens, 3u);
}

// Freeze buckets postings by their tokens' top bits before sorting, which
// assumes nothing of the tokens: uniform ones, ones sharing their top bits
// (one bucket), repeats within and across shots, and videos added out of
// id order all freeze to the sorted, unique (token, video, shot) set —
// which Deserialize verifies posting by posting.
TEST(FrameIndexTest, FreezeSortsAnyTokenDistribution) {
  Pcg32 rng(0xf5eeu);
  FrameIndex index;
  std::set<std::tuple<uint64_t, int, int>> expected;
  for (int video : {3, 0, 2, 1}) {
    ShotTokens shots(40);
    for (size_t shot = 0; shot < shots.size(); ++shot) {
      for (int t = 0; t < 50; ++t) {
        uint64_t token = 0;
        switch (rng.NextBounded(3)) {
          case 0:  // uniform
            token = (uint64_t{rng.NextU32()} << 32) | rng.NextU32();
            break;
          case 1:  // all top bits zero
            token = rng.NextBounded(64);
            break;
          default:  // all top bits set
            token = ~uint64_t{0} - rng.NextBounded(64);
            break;
        }
        shots[shot].push_back(token);
        if (t % 7 == 0) shots[shot].push_back(token);  // a repeat
        expected.emplace(token, video, static_cast<int>(shot));
      }
    }
    index.AddVideo(video, shots);
  }
  index.Freeze();
  EXPECT_EQ(index.posting_count(), expected.size());
  Result<FrameIndex> restored = FrameIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  std::vector<uint64_t> one_token = {std::get<0>(*expected.begin())};
  std::vector<FrameHit> hits = index.Query(one_token, -1);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].video_id, std::get<1>(*expected.begin()));
  EXPECT_EQ(hits[0].shot_index, std::get<2>(*expected.begin()));
}

}  // namespace
}  // namespace index
}  // namespace vdb
