// Functional tests of the segmented catalog store: round trips, incremental
// publish (the 22-clip acceptance scenario), generation fallback past
// corruption, and compaction.

#include "store/catalog_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/video_database.h"
#include "synth/presets.h"
#include "tests/support/render_cache.h"
#include "util/fs.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace vdb {
namespace store {
namespace {

// A content fingerprint of everything queryable in a database; two
// databases with equal fingerprints answer every catalog query the same.
std::string Fingerprint(const VideoDatabase& db) {
  std::string out = StrFormat("videos=%d index=%d\n", db.video_count(),
                              db.index().size());
  for (int id = 0; id < db.video_count(); ++id) {
    const CatalogEntry* entry = db.GetEntry(id).value();
    out += StrFormat("[%d] %s frames=%d fps=%.6f shots=%zu form=%d\n", id,
                     entry->name.c_str(), entry->frame_count, entry->fps,
                     entry->shots.size(), entry->classification.form_id);
    for (size_t s = 0; s < entry->shots.size(); ++s) {
      out += StrFormat("  shot %d-%d varBA=%.9f varOA=%.9f\n",
                       entry->shots[s].start_frame,
                       entry->shots[s].end_frame, entry->features[s].var_ba,
                       entry->features[s].var_oa);
    }
    for (int g : entry->classification.genre_ids) {
      out += StrFormat("  genre=%d", g);
    }
    out += entry->scene_tree.ToAscii();
  }
  VarianceQuery query;
  query.var_ba = 9.0;
  query.var_oa = 1.0;
  Result<std::vector<BrowsingSuggestion>> found = db.Search(query, 8);
  EXPECT_TRUE(found.ok()) << found.status();
  for (const BrowsingSuggestion& s : *found) {
    out += StrFormat("match %s shot=%d d=%.9f node=%d label=%s rep=%d\n",
                     s.video_name.c_str(), s.match.entry.shot_index,
                     s.match.distance, s.scene_node, s.scene_label.c_str(),
                     s.representative_frame);
  }
  return out;
}

int CountSegments(const std::string& dir) {
  std::vector<std::string> names = ListDir(dir).value();
  return static_cast<int>(
      std::count_if(names.begin(), names.end(), [](const std::string& n) {
        return EndsWith(n, ".seg");
      }));
}

void CorruptByteAt(const std::string& path, size_t offset) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

void TruncateTo(const std::string& path, size_t size) {
  Result<std::string> contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_LT(size, contents->size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents->data(), static_cast<std::streamoff>(size));
}

class CatalogStoreTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new VideoDatabase();
    const SyntheticVideo& ten = testsupport::CachedRender(TenShotStoryboard());
    const SyntheticVideo& friends =
        testsupport::CachedRender(FriendsStoryboard());
    ASSERT_TRUE(base_->Ingest(ten.video).ok());
    ASSERT_TRUE(base_->Ingest(friends.video).ok());
  }

  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }

  // A fresh per-test store directory (ctest runs each test as its own
  // process, so the pid keeps parallel tests apart).
  std::string StoreDir() const {
    return testing::TempDir() + "/store_" + std::to_string(getpid()) + "_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void TearDown() override {
    const std::string dir = StoreDir();
    Result<std::vector<std::string>> names = ListDir(dir);
    if (names.ok()) {
      for (const std::string& name : *names) {
        std::remove((dir + "/" + name).c_str());
      }
      ::rmdir(dir.c_str());
    }
  }

  // A database holding `n` renamed copies of the ten-shot analysis;
  // `classify` (when >= 0) tags that copy so its segment content differs.
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
      tag.genre_ids = {1};
      tag.form_id = 0;
      EXPECT_TRUE(db->SetClassification(classify, tag).ok());
    }
    return db;
  }

  static VideoDatabase* base_;
};

VideoDatabase* CatalogStoreTest::base_ = nullptr;

TEST_F(CatalogStoreTest, SaveOpenRoundTripPreservesEverythingQueryable) {
  CatalogStore store(StoreDir());
  Result<SaveStats> saved = store.Save(*base_);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved->generation, 1u);
  EXPECT_EQ(saved->segments_written, 2);
  EXPECT_EQ(saved->segments_reused, 0);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.generations_skipped, 0);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*base_));
}

TEST_F(CatalogStoreTest, OpenOfMissingOrEmptyStoreIsNotFound) {
  CatalogStore missing(StoreDir());
  EXPECT_EQ(missing.Open().status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(CreateDirIfMissing(StoreDir()).ok());
  CatalogStore empty(StoreDir());
  EXPECT_EQ(empty.Open().status().code(), StatusCode::kNotFound);
}

// The issue's incremental-publish acceptance: re-saving a 22-video store
// with exactly one changed video rewrites exactly one segment (plus the
// manifest) and reuses the other 21.
TEST_F(CatalogStoreTest, IncrementalPublishRewritesOnlyTheChangedSegment) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(22);
  Result<SaveStats> first = store.Save(*v1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(first->segments_written, 22);
  EXPECT_EQ(first->segments_reused, 0);
  EXPECT_EQ(CountSegments(StoreDir()), 22);

  std::unique_ptr<VideoDatabase> v2 = Clones(22, /*classify=*/7);
  Result<SaveStats> second = store.Save(*v2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->generation, 2u);
  EXPECT_EQ(second->segments_written, 1);
  EXPECT_EQ(second->segments_reused, 21);
  EXPECT_EQ(CountSegments(StoreDir()), 23);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v2));

  // An identical re-save writes nothing but the manifest.
  Result<SaveStats> third = store.Save(*v2);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->segments_written, 0);
  EXPECT_EQ(third->segments_reused, 22);
}

TEST_F(CatalogStoreTest, OpenFallsBackPastACorruptNewestManifest) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  std::unique_ptr<VideoDatabase> v2 = Clones(2, /*classify=*/0);
  ASSERT_TRUE(store.Save(*v1).ok());
  ASSERT_TRUE(store.Save(*v2).ok());

  CorruptByteAt(StoreDir() + "/MANIFEST-000002", 20);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.generations_skipped, 1);
  EXPECT_EQ(stats.skipped_error.code(), StatusCode::kCorruption);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v1));
}

TEST_F(CatalogStoreTest, OpenFallsBackPastATornSegment) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  std::unique_ptr<VideoDatabase> v2 = Clones(2, /*classify=*/1);
  ASSERT_TRUE(store.Save(*v1).ok());
  std::vector<std::string> before = ListDir(StoreDir()).value();
  Result<SaveStats> second = store.Save(*v2);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->segments_written, 1);

  // Truncate the one segment generation 2 does not share with generation 1
  // (a torn write that slipped past rename, e.g. after a disk error).
  std::string only_in_gen2;
  std::vector<std::string> after = ListDir(StoreDir()).value();
  for (const std::string& name : after) {
    if (EndsWith(name, ".seg") &&
        std::find(before.begin(), before.end(), name) == before.end()) {
      only_in_gen2 = name;
    }
  }
  ASSERT_FALSE(only_in_gen2.empty());
  TruncateTo(StoreDir() + "/" + only_in_gen2, 10);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.generations_skipped, 1);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v1));
}

TEST_F(CatalogStoreTest, CompactRemovesOldGenerationsAndOrphans) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(3);
  std::unique_ptr<VideoDatabase> v2 = Clones(3, /*classify=*/2);
  ASSERT_TRUE(store.Save(*v1).ok());
  ASSERT_TRUE(store.Save(*v2).ok());
  // An abandoned temp file from a crashed publish.
  { std::ofstream(StoreDir() + "/seg-dead.seg.tmp") << "junk"; }

  Result<CompactStats> compacted = store.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_EQ(compacted->kept_generation, 2u);
  // MANIFEST-1, the replaced segment, and the temp file.
  EXPECT_EQ(compacted->removed_files, 3);
  EXPECT_EQ(CountSegments(StoreDir()), 3);

  Result<std::unique_ptr<VideoDatabase>> opened = store.Open();
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v2));

  // Compacting a compacted store is a no-op.
  Result<CompactStats> again = store.Compact();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->removed_files, 0);
}

TEST_F(CatalogStoreTest, CompactKeepsTheFallbackWhenNewestIsCorrupt) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  std::unique_ptr<VideoDatabase> v2 = Clones(2, /*classify=*/0);
  ASSERT_TRUE(store.Save(*v1).ok());
  ASSERT_TRUE(store.Save(*v2).ok());
  CorruptByteAt(StoreDir() + "/MANIFEST-000002", 20);

  // Compact keeps what Open would serve — generation 1 — and removes the
  // corrupt newer manifest along with its unshared segment.
  Result<CompactStats> compacted = store.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_EQ(compacted->kept_generation, 1u);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.generations_skipped, 0);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v1));
}

TEST_F(CatalogStoreTest, SaveAfterCorruptNewestStartsAFreshGeneration) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> v1 = Clones(2);
  ASSERT_TRUE(store.Save(*v1).ok());
  CorruptByteAt(StoreDir() + "/MANIFEST-000001", 20);

  // With no readable manifest nothing can be reused, but Save still
  // publishes a next generation above the corrupt one.
  Result<SaveStats> saved = store.Save(*v1);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved->generation, 2u);
  EXPECT_EQ(saved->segments_written, 2);
  EXPECT_EQ(saved->segments_reused, 0);

  OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(Fingerprint(**opened), Fingerprint(*v1));
}

TEST_F(CatalogStoreTest, CurrentManifestListsLiveSegmentsInIdOrder) {
  CatalogStore store(StoreDir());
  std::unique_ptr<VideoDatabase> db = Clones(3);
  ASSERT_TRUE(store.Save(*db).ok());

  Result<Manifest> manifest = store.CurrentManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->generation, 1u);
  ASSERT_EQ(manifest->segments.size(), 3u);
  for (int id = 0; id < 3; ++id) {
    const SegmentRef& ref = manifest->segments[static_cast<size_t>(id)];
    EXPECT_EQ(ref.video_name, db->GetEntry(id).value()->name);
    EXPECT_TRUE(StartsWith(ref.file, "seg-"));
    EXPECT_TRUE(EndsWith(ref.file, ".seg"));
    EXPECT_GT(ref.payload_size, 0u);
  }
}

// The publish-serialization regression (the ingest farm's satellite fix):
// before the per-directory publish lock, two concurrent Saves could both
// read CurrentManifest = N and both publish MANIFEST-(N+1) — one commit
// silently swallowed. Hammering parallel Saves must produce exactly one
// generation per Save, contiguously numbered, every manifest parseable,
// and the final store loadable.
TEST_F(CatalogStoreTest, ParallelSavesCommitContiguousGenerations) {
  const std::string dir = StoreDir();
  constexpr int kThreads = 8;
  constexpr int kSavesPerThread = 4;

  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&dir, t]() -> Status {
      // Each thread publishes its own distinctly-classified catalog so
      // every Save writes at least one fresh segment (no pure
      // manifest-reference commits hiding the race).
      std::unique_ptr<VideoDatabase> db = Clones(2, /*classify=*/t % 2);
      CatalogStore store(dir);
      for (int s = 0; s < kSavesPerThread; ++s) {
        Result<SaveStats> saved = store.Save(*db);
        if (!saved.ok()) return saved.status();
        if (saved->generation == 0) {
          return Status::Internal("Save published generation 0");
        }
      }
      return Status::Ok();
    });
  }
  Status all = pool.Wait();
  ASSERT_TRUE(all.ok()) << all;

  CatalogStore store(dir);
  Result<Manifest> newest = store.CurrentManifest();
  ASSERT_TRUE(newest.ok()) << newest.status();
  // One generation per Save, none skipped, none torn: 1..N all parse.
  EXPECT_EQ(newest->generation,
            static_cast<uint64_t>(kThreads * kSavesPerThread));
  for (uint64_t g = 1; g <= newest->generation; ++g) {
    Result<Manifest> manifest = store.ManifestAt(g);
    EXPECT_TRUE(manifest.ok()) << "generation " << g << ": "
                               << manifest.status();
    if (manifest.ok()) {
      EXPECT_EQ(manifest->generation, g);
    }
  }
  OpenStats open_stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open(&open_stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(open_stats.generation, newest->generation);
  EXPECT_EQ(open_stats.generations_skipped, 0);
  EXPECT_EQ((*opened)->video_count(), 2);
}

}  // namespace
}  // namespace store
}  // namespace vdb
