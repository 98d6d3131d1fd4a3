// The catalog's persistence oracles, against the one on-disk form: a store
// directory (store/catalog_store.h) whose segments carry the catalog_io
// entry codec. A saved-and-opened catalog must preserve everything
// queryable, answer queries identically, and refuse corrupt bytes.

#include "core/catalog_io.h"

#include <cstdio>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "store/catalog_store.h"
#include "synth/presets.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "tests/support/temp_store.h"
#include "util/binary_io.h"
#include "util/fs.h"
#include "video/video_io.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

class CatalogIoTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new VideoDatabase();
    SyntheticVideo ten =
        testsupport::CachedRender(TenShotStoryboard());
    SyntheticVideo friends =
        testsupport::CachedRender(FriendsStoryboard());
    ASSERT_TRUE(db_->Ingest(ten.video).ok());
    ASSERT_TRUE(db_->Ingest(friends.video).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static VideoDatabase* db_;
};

VideoDatabase* CatalogIoTest::db_ = nullptr;

TEST_F(CatalogIoTest, RoundTripPreservesEverythingQueryable) {
  std::string dir = TempPath("catalog_rt");
  ASSERT_TRUE(testsupport::SaveFreshStore(*db_, dir).ok());

  Result<std::unique_ptr<VideoDatabase>> opened =
      store::CatalogStore(dir).Open();
  ASSERT_TRUE(opened.ok()) << opened.status();
  const VideoDatabase& restored = **opened;
  ASSERT_EQ(restored.video_count(), db_->video_count());
  EXPECT_EQ(restored.index().size(), db_->index().size());

  for (int id = 0; id < db_->video_count(); ++id) {
    const CatalogEntry* a = db_->GetEntry(id).value();
    const CatalogEntry* b = restored.GetEntry(id).value();
    EXPECT_EQ(a->name, b->name);
    EXPECT_DOUBLE_EQ(a->fps, b->fps);
    EXPECT_EQ(a->frame_count, b->frame_count);
    ASSERT_EQ(a->shots.size(), b->shots.size());
    for (size_t i = 0; i < a->shots.size(); ++i) {
      EXPECT_EQ(a->shots[i], b->shots[i]);
      EXPECT_DOUBLE_EQ(a->features[i].var_ba, b->features[i].var_ba);
      EXPECT_DOUBLE_EQ(a->features[i].var_oa, b->features[i].var_oa);
    }
    EXPECT_EQ(a->sbd_stats.stage1_same, b->sbd_stats.stage1_same);
    EXPECT_EQ(a->sbd_stats.stage3_boundary, b->sbd_stats.stage3_boundary);
    // Tree structure is preserved node for node.
    ASSERT_EQ(a->scene_tree.node_count(), b->scene_tree.node_count());
    EXPECT_EQ(a->scene_tree.root(), b->scene_tree.root());
    EXPECT_EQ(a->scene_tree.ToAscii(), b->scene_tree.ToAscii());
    // Signs and the full signature lines round trip (the frame index
    // rebuilds from a reloaded catalog, so the tokenizer's input must
    // survive byte for byte).
    for (int f = 0; f < a->frame_count; ++f) {
      EXPECT_EQ(a->signatures.frames[static_cast<size_t>(f)].sign_ba,
                b->signatures.frames[static_cast<size_t>(f)].sign_ba);
      EXPECT_EQ(a->signatures.frames[static_cast<size_t>(f)].signature_ba,
                b->signatures.frames[static_cast<size_t>(f)].signature_ba);
    }
  }
  testsupport::RemoveTree(dir);
}

TEST_F(CatalogIoTest, RestoredDatabaseAnswersQueriesIdentically) {
  std::string dir = TempPath("catalog_query");
  ASSERT_TRUE(testsupport::SaveFreshStore(*db_, dir).ok());
  Result<std::unique_ptr<VideoDatabase>> opened =
      store::CatalogStore(dir).Open();
  ASSERT_TRUE(opened.ok()) << opened.status();
  const VideoDatabase& restored = **opened;

  VarianceQuery q;
  q.var_ba = 9.0;
  q.var_oa = 1.0;
  auto original = db_->Search(q, 5).value();
  auto reloaded = restored.Search(q, 5).value();
  ASSERT_EQ(original.size(), reloaded.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].match.entry.video_id,
              reloaded[i].match.entry.video_id);
    EXPECT_EQ(original[i].match.entry.shot_index,
              reloaded[i].match.entry.shot_index);
    EXPECT_EQ(original[i].scene_label, reloaded[i].scene_label);
    EXPECT_EQ(original[i].representative_frame,
              reloaded[i].representative_frame);
  }
  testsupport::RemoveTree(dir);
}

// Every byte of a segment is covered by its checksum: a flip, a truncation
// or a bad magic in the only generation's segment leaves nothing to serve.
TEST_F(CatalogIoTest, DetectsCorruption) {
  std::string dir = TempPath("catalog_corrupt");
  ASSERT_TRUE(testsupport::SaveFreshStore(*db_, dir).ok());
  store::CatalogStore catalog_store(dir);
  Result<store::Manifest> manifest = catalog_store.CurrentManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  const std::string path = dir + "/" + manifest->segments[0].file;
  std::string contents = ReadFileToString(path).value();

  // Bit flip in the payload.
  std::string flipped = contents;
  flipped[flipped.size() / 2] ^= 0x10;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
  EXPECT_EQ(catalog_store.Open().status().code(), StatusCode::kCorruption);

  // Truncation.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << contents.substr(0, contents.size() / 2);
  EXPECT_EQ(catalog_store.Open().status().code(), StatusCode::kCorruption);

  // Bad magic.
  std::string bad_magic = contents;
  bad_magic[0] = 'X';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bad_magic;
  EXPECT_EQ(catalog_store.Open().status().code(), StatusCode::kCorruption);

  testsupport::RemoveTree(dir);
}

// A catalog path that names a plain file is not a store: opening it fails
// cleanly instead of serving an empty catalog.
TEST_F(CatalogIoTest, PlainFileIsNotAStore) {
  std::string path = TempPath("catalog_plain_file");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "not a store";
  EXPECT_EQ(store::CatalogStore(path).Open().status().code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

// The entry codec, field by field, writing every pixel as three single
// bytes: the reference the codec's bulk line writes must reproduce.
std::string ReferenceEntryBytes(const CatalogEntry& entry) {
  BinaryWriter w;
  auto pixel = [&w](const PixelRGB& p) {
    w.PutU8(p.r);
    w.PutU8(p.g);
    w.PutU8(p.b);
  };
  w.PutString(entry.name);
  w.PutU32(static_cast<uint32_t>(entry.classification.genre_ids.size()));
  for (int g : entry.classification.genre_ids) w.PutI32(g);
  w.PutI32(entry.classification.form_id);
  w.PutDouble(entry.fps);
  w.PutI32(entry.frame_count);
  w.PutI32(entry.signatures.geometry.frame_width);
  w.PutI32(entry.signatures.geometry.frame_height);
  w.PutU32(static_cast<uint32_t>(entry.signatures.frames.size()));
  for (const FrameSignature& fs : entry.signatures.frames) {
    pixel(fs.sign_ba);
    pixel(fs.sign_oa);
    w.PutU32(static_cast<uint32_t>(fs.signature_ba.size()));
    for (const PixelRGB& p : fs.signature_ba) pixel(p);
  }
  w.PutU32(static_cast<uint32_t>(entry.shots.size()));
  for (const Shot& shot : entry.shots) {
    w.PutI32(shot.start_frame);
    w.PutI32(shot.end_frame);
  }
  for (const ShotFeatures& f : entry.features) {
    w.PutDouble(f.var_ba);
    w.PutDouble(f.var_oa);
  }
  w.PutU64(static_cast<uint64_t>(entry.sbd_stats.stage1_same));
  w.PutU64(static_cast<uint64_t>(entry.sbd_stats.stage2_same));
  w.PutU64(static_cast<uint64_t>(entry.sbd_stats.stage3_same));
  w.PutU64(static_cast<uint64_t>(entry.sbd_stats.stage3_boundary));
  w.PutI32(entry.scene_tree.root());
  w.PutU32(static_cast<uint32_t>(entry.scene_tree.node_count()));
  for (const SceneNode& node : entry.scene_tree.nodes()) {
    w.PutI32(node.parent);
    w.PutI32(node.level);
    w.PutI32(node.shot_index);
    w.PutI32(node.representative_frame);
    w.PutU32(static_cast<uint32_t>(node.children.size()));
    for (int child : node.children) w.PutI32(child);
  }
  return w.TakeBuffer();
}

// A round trip cannot see a matched change to encoder and decoder, so the
// encoded bytes of a Table-5 preset entry are pinned to the reference.
TEST(CatalogEntryBytesTest, MatchesPerPixelReferenceEncoder) {
  const ClipProfile profile = Table5Profiles().front();
  const Video& video = testsupport::CachedRender(
                           MakeStoryboardFromProfile(profile, 0.03, 3))
                           .video;
  VideoDatabase db;
  Result<int> id = db.Ingest(video);
  ASSERT_TRUE(id.ok()) << id.status();
  CatalogEntry entry = *db.GetEntry(*id).value();
  entry.classification.genre_ids = {2, 7};
  entry.classification.form_id = 1;
  ASSERT_FALSE(entry.signatures.frames.empty());
  ASSERT_FALSE(entry.signatures.frames[0].signature_ba.empty());

  BinaryWriter w;
  SerializeCatalogEntry(entry, &w);
  std::string want = ReferenceEntryBytes(entry);
  ASSERT_EQ(w.buffer().size(), want.size()) << profile.name;
  EXPECT_TRUE(w.buffer() == want) << profile.name;
}

TEST(IngestFileTest, MatchesInMemoryIngest) {
  std::string path = testing::TempDir() + "/ingest_stream.vdb";
  SyntheticVideo sv = testsupport::CachedRender(TenShotStoryboard());
  ASSERT_TRUE(WriteVideoFile(sv.video, path).ok());

  VideoDatabase in_memory;
  ASSERT_TRUE(in_memory.Ingest(sv.video).ok());
  VideoDatabase streamed;
  Result<int> id = streamed.IngestFile(path);
  ASSERT_TRUE(id.ok()) << id.status();

  const CatalogEntry* a = in_memory.GetEntry(0).value();
  const CatalogEntry* b = streamed.GetEntry(0).value();
  EXPECT_EQ(a->name, b->name);
  ASSERT_EQ(a->shots.size(), b->shots.size());
  for (size_t i = 0; i < a->shots.size(); ++i) {
    EXPECT_EQ(a->shots[i], b->shots[i]);
    EXPECT_DOUBLE_EQ(a->features[i].var_ba, b->features[i].var_ba);
  }
  EXPECT_EQ(a->scene_tree.ToAscii(), b->scene_tree.ToAscii());
  std::remove(path.c_str());
}

TEST(IngestFileTest, FailsOnMissingFile) {
  VideoDatabase db;
  EXPECT_FALSE(db.IngestFile(testing::TempDir() + "/nope.vdb").ok());
  EXPECT_EQ(db.video_count(), 0);
}

TEST(CatalogIoEmptyTest, EmptyDatabaseRoundTrips) {
  std::string dir = testing::TempDir() + "/catalog_empty";
  VideoDatabase empty;
  ASSERT_TRUE(testsupport::SaveFreshStore(empty, dir).ok());
  Result<std::unique_ptr<VideoDatabase>> restored =
      store::CatalogStore(dir).Open();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->video_count(), 0);
  testsupport::RemoveTree(dir);
}

TEST(RestoreTest, RejectsInconsistentEntries) {
  VideoDatabase db;
  CatalogEntry entry;
  entry.name = "bad";
  entry.frame_count = 10;
  entry.signatures.frames.resize(5);  // mismatch
  EXPECT_FALSE(db.Restore(std::move(entry)).ok());
  EXPECT_EQ(db.video_count(), 0);
}

}  // namespace
}  // namespace vdb
