// Crash-injection suite for the segmented store's publish protocol: a
// fault hook simulates a process kill immediately before every
// durability-relevant operation (tmp write, fsync, rename, directory sync)
// of a Save, and torn/truncated files simulate writes that ripped mid-way.
// After every simulated crash, reopening the store must yield a consistent
// prior (or just-published) generation with byte-identical query results —
// and never kCorruption on the recovered path.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/video_database.h"
#include "store/catalog_store.h"
#include "synth/presets.h"
#include "tests/support/render_cache.h"
#include "tests/support/temp_store.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace vdb {
namespace store {
namespace {

// The query-visible content of a database, as one comparable string.
std::string Fingerprint(const VideoDatabase& db) {
  std::string out = StrFormat("videos=%d index=%d\n", db.video_count(),
                              db.index().size());
  for (int id = 0; id < db.video_count(); ++id) {
    const CatalogEntry* entry = db.GetEntry(id).value();
    out += StrFormat("[%d] %s shots=%zu form=%d\n", id, entry->name.c_str(),
                     entry->shots.size(), entry->classification.form_id);
    for (size_t s = 0; s < entry->shots.size(); ++s) {
      out += StrFormat("  %d-%d %.9f %.9f\n", entry->shots[s].start_frame,
                       entry->shots[s].end_frame, entry->features[s].var_ba,
                       entry->features[s].var_oa);
    }
    out += entry->scene_tree.ToAscii();
  }
  VarianceQuery query;
  query.var_ba = 9.0;
  query.var_oa = 1.0;
  Result<std::vector<BrowsingSuggestion>> found = db.Search(query, 8);
  EXPECT_TRUE(found.ok()) << found.status();
  for (const BrowsingSuggestion& s : *found) {
    out += StrFormat("match %s %d %.9f %s %d\n", s.video_name.c_str(),
                     s.match.entry.shot_index, s.match.distance,
                     s.scene_label.c_str(), s.representative_frame);
  }
  return out;
}

class StoreCrashTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new VideoDatabase();
    const SyntheticVideo& ten = testsupport::CachedRender(TenShotStoryboard());
    ASSERT_TRUE(base_->Ingest(ten.video).ok());
  }

  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }

  std::string FreshDir(const std::string& tag) const {
    std::string dir = testing::TempDir() + "/crash_" +
                      std::to_string(getpid()) + "_" + tag;
    testsupport::RemoveTree(dir);
    return dir;
  }

  // `n` renamed copies of the ten-shot analysis, optionally tagging one so
  // its segment content (and hence its file) differs between versions.
  static std::unique_ptr<VideoDatabase> Clones(int n, int classify = -1) {
    auto db = std::make_unique<VideoDatabase>();
    const CatalogEntry* ten = base_->GetEntry(0).value();
    for (int i = 0; i < n; ++i) {
      CatalogEntry copy = *ten;
      copy.name = StrFormat("clip-%02d", i);
      EXPECT_TRUE(db->Restore(std::move(copy)).ok());
    }
    if (classify >= 0) {
      VideoClassification tag;
      tag.genre_ids = {2};
      tag.form_id = 1;
      EXPECT_TRUE(db->SetClassification(classify, tag).ok());
    }
    return db;
  }

  static VideoDatabase* base_;
};

VideoDatabase* StoreCrashTest::base_ = nullptr;

// Runs `Save(db)` against `dir` with a hook that kills the publish at fault
// point number `kill_at` (-1 = count points without killing). Returns the
// number of points consulted.
int SaveWithKill(const std::string& dir, const VideoDatabase& db,
                 int kill_at, Status* save_status) {
  int seen = 0;
  StoreOptions options;
  options.fault_hook = [&seen, kill_at](std::string_view) {
    return seen++ != kill_at;
  };
  CatalogStore store(dir, options);
  *save_status = store.Save(db).status();
  return seen;
}

// The tentpole acceptance check: kill the publish at *every* fault point in
// turn; after each kill the store must reopen to a consistent generation —
// the previous one, or the new one if the crash hit after its manifest
// rename — with query results byte-identical to that generation's
// database, and never a kCorruption on the recovered path. A clean re-save
// must then converge on the new generation.
TEST_F(StoreCrashTest, KillAtEveryFaultPointOfAnIncrementalPublish) {
  std::unique_ptr<VideoDatabase> v1 = Clones(3);
  std::unique_ptr<VideoDatabase> v2 = Clones(3, /*classify=*/1);
  const std::string want_v1 = Fingerprint(*v1);
  const std::string want_v2 = Fingerprint(*v2);
  ASSERT_NE(want_v1, want_v2);

  // Dry run: learn how many fault points the v1->v2 publish crosses.
  Status ignored;
  const std::string probe = FreshDir("probe");
  {
    CatalogStore store(probe);
    ASSERT_TRUE(store.Save(*v1).ok());
  }
  int points = SaveWithKill(probe, *v2, /*kill_at=*/-1, &ignored);
  ASSERT_TRUE(ignored.ok()) << ignored;
  // 1 changed segment + 1 manifest, 4 durability points each.
  ASSERT_EQ(points, 8);
  testsupport::RemoveTree(probe);

  for (int kill = 0; kill < points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    const std::string dir = FreshDir("kill");
    {
      CatalogStore store(dir);
      ASSERT_TRUE(store.Save(*v1).ok());
    }

    Status crashed;
    SaveWithKill(dir, *v2, kill, &crashed);
    ASSERT_EQ(crashed.code(), StatusCode::kIoError) << crashed;
    EXPECT_TRUE(crashed.message().find("simulated crash") !=
                std::string::npos)
        << crashed;

    // Recovery: the reopened store is generation 1 or generation 2 —
    // nothing else, and never a corruption error.
    CatalogStore store(dir);
    OpenStats stats;
    Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(stats.generations_skipped, 0);
    const std::string got = Fingerprint(**opened);
    if (stats.generation == 1u) {
      EXPECT_EQ(got, want_v1);
    } else {
      ASSERT_EQ(stats.generation, 2u);
      EXPECT_EQ(got, want_v2);
    }

    // A clean retry of the publish converges on generation 2 content.
    Result<SaveStats> retried = store.Save(*v2);
    ASSERT_TRUE(retried.ok()) << retried.status();
    Result<std::unique_ptr<VideoDatabase>> after = store.Open(&stats);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(Fingerprint(**after), want_v2);

    // Compact collects whatever the crash left behind; the store still
    // serves the retried publish afterwards.
    Result<CompactStats> compacted = store.Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status();
    Result<std::unique_ptr<VideoDatabase>> final_open = store.Open(&stats);
    ASSERT_TRUE(final_open.ok()) << final_open.status();
    EXPECT_EQ(Fingerprint(**final_open), want_v2);
    testsupport::RemoveTree(dir);
  }
}

// Killing the very first publish (no prior generation) must leave a store
// that reports NotFound — not corruption — and that a retry fully heals.
TEST_F(StoreCrashTest, KillAtEveryFaultPointOfTheFirstPublish) {
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  const std::string want = Fingerprint(*v1);

  Status ignored;
  const std::string probe = FreshDir("probe0");
  int points = SaveWithKill(probe, *v1, /*kill_at=*/-1, &ignored);
  ASSERT_TRUE(ignored.ok()) << ignored;
  ASSERT_EQ(points, 12);  // 2 segments + 1 manifest, 4 points each
  testsupport::RemoveTree(probe);

  for (int kill = 0; kill < points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    const std::string dir = FreshDir("kill0");

    Status crashed;
    SaveWithKill(dir, *v1, kill, &crashed);
    ASSERT_EQ(crashed.code(), StatusCode::kIoError) << crashed;

    CatalogStore store(dir);
    OpenStats stats;
    Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
    if (opened.ok()) {
      // The crash hit after the manifest rename: generation 1 is live.
      EXPECT_EQ(stats.generation, 1u);
      EXPECT_EQ(Fingerprint(**opened), want);
    } else {
      EXPECT_EQ(opened.status().code(), StatusCode::kNotFound)
          << opened.status();
    }

    Result<SaveStats> retried = store.Save(*v1);
    ASSERT_TRUE(retried.ok()) << retried.status();
    Result<std::unique_ptr<VideoDatabase>> after = store.Open(&stats);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(Fingerprint(**after), want);
    testsupport::RemoveTree(dir);
  }
}

// Torn-write matrix: every prefix-truncation of the newest manifest and of
// its freshly-written segment must fall back to the prior generation with
// an OK open.
TEST_F(StoreCrashTest, TruncatedManifestAndSegmentAlwaysFallBack) {
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  std::unique_ptr<VideoDatabase> v2 = Clones(2, /*classify=*/0);
  const std::string want_v1 = Fingerprint(*v1);

  const std::string dir = FreshDir("torn");
  {
    CatalogStore store(dir);
    ASSERT_TRUE(store.Save(*v1).ok());
  }
  std::vector<std::string> before = ListDir(dir).value();
  {
    CatalogStore store(dir);
    ASSERT_TRUE(store.Save(*v2).ok());
  }
  std::string new_segment;
  std::vector<std::string> after = ListDir(dir).value();
  for (const std::string& name : after) {
    bool is_new = true;
    for (const std::string& old : before) {
      is_new &= old != name;
    }
    if (is_new && EndsWith(name, ".seg")) new_segment = name;
  }
  ASSERT_FALSE(new_segment.empty());

  for (const std::string& victim :
       {std::string("MANIFEST-000002"), new_segment}) {
    Result<std::string> intact = ReadFileToString(dir + "/" + victim);
    ASSERT_TRUE(intact.ok()) << intact.status();
    // Every truncation length, from empty to one-byte-short. Stride keeps
    // the matrix dense at the interesting small sizes without quadratic
    // cost over the payload.
    for (size_t keep = 0; keep < intact->size();
         keep += (keep < 64 ? 1 : 97)) {
      SCOPED_TRACE(victim + " truncated to " + std::to_string(keep));
      {
        std::string torn = intact->substr(0, keep);
        ASSERT_TRUE(WriteFileAtomic(dir + "/" + victim, torn).ok());
      }
      CatalogStore store(dir);
      OpenStats stats;
      Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
      ASSERT_TRUE(opened.ok()) << opened.status();
      EXPECT_EQ(stats.generation, 1u);
      EXPECT_EQ(stats.generations_skipped, 1);
      EXPECT_EQ(Fingerprint(**opened), want_v1);
    }
    // Restore the intact file before tearing the next victim.
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + victim, *intact).ok());
  }
  testsupport::RemoveTree(dir);
}

// Bit flips anywhere in the newest manifest or newest segment must likewise
// never surface as corruption from Open — only as a silent fallback.
TEST_F(StoreCrashTest, BitFlipsInNewestGenerationFallBack) {
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  std::unique_ptr<VideoDatabase> v2 = Clones(2, /*classify=*/1);
  const std::string want_v1 = Fingerprint(*v1);

  const std::string dir = FreshDir("flip");
  {
    CatalogStore store(dir);
    ASSERT_TRUE(store.Save(*v1).ok());
  }
  std::vector<std::string> before = ListDir(dir).value();
  {
    CatalogStore store(dir);
    ASSERT_TRUE(store.Save(*v2).ok());
  }
  std::string new_segment;
  std::vector<std::string> after = ListDir(dir).value();
  for (const std::string& name : after) {
    bool is_new = true;
    for (const std::string& old : before) {
      is_new &= old != name;
    }
    if (is_new && EndsWith(name, ".seg")) new_segment = name;
  }
  ASSERT_FALSE(new_segment.empty());

  for (const std::string& victim :
       {std::string("MANIFEST-000002"), new_segment}) {
    Result<std::string> intact = ReadFileToString(dir + "/" + victim);
    ASSERT_TRUE(intact.ok()) << intact.status();
    for (size_t at = 0; at < intact->size();
         at += (at < 32 ? 1 : 61)) {
      SCOPED_TRACE(victim + " flipped at " + std::to_string(at));
      std::string flipped = *intact;
      flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
      ASSERT_TRUE(WriteFileAtomic(dir + "/" + victim, flipped).ok());

      CatalogStore store(dir);
      OpenStats stats;
      Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
      ASSERT_TRUE(opened.ok()) << opened.status();
      EXPECT_EQ(stats.generation, 1u);
      EXPECT_EQ(stats.generations_skipped, 1);
      EXPECT_EQ(Fingerprint(**opened), want_v1);
    }
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + victim, *intact).ok());
  }
  testsupport::RemoveTree(dir);
}

}  // namespace
}  // namespace store
}  // namespace vdb
