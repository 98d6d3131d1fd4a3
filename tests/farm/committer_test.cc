// The Committer's publish contract. It is the only publisher of the system
// — solo pipelines and every farm tenant commit through it — so its
// guarantees are pinned here directly: upsert by name, video ids in name
// order, contiguous generations, a FRAMEINDEX matching every generation,
// RELOAD accounting, a solo run publishing exactly what a one-stream
// farm publishes, and — since a publish encodes only the entry it was
// given — the same bytes a full Save of the catalog would publish, even
// across a failed publish.

#include "farm/committer.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_io.h"
#include "core/video_database.h"
#include "farm/farm.h"
#include "index/frame_index.h"
#include "index/index_store.h"
#include "serve/net.h"
#include "serve/server.h"
#include "store/catalog_store.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "synth/presets.h"
#include "tests/support/render_cache.h"
#include "util/binary_io.h"
#include "util/fs.h"
#include "util/random.h"
#include "util/string_util.h"

namespace vdb {
namespace farm {
namespace {

std::string EntryBytes(const CatalogEntry& entry) {
  BinaryWriter w;
  SerializeCatalogEntry(entry, &w);
  return w.TakeBuffer();
}

std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/committer_" +
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

// Every entry of the store's newest generation, serialized in id order.
std::vector<std::string> StoreEntryBytes(const std::string& dir) {
  Result<std::unique_ptr<VideoDatabase>> opened =
      store::CatalogStore(dir).Open();
  EXPECT_TRUE(opened.ok()) << opened.status();
  std::vector<std::string> out;
  if (!opened.ok()) return out;
  for (int id = 0; id < (*opened)->video_count(); ++id) {
    out.push_back(EntryBytes(*(*opened)->GetEntry(id).value()));
  }
  return out;
}

std::vector<std::string> StoreNames(const std::string& dir) {
  Result<std::unique_ptr<VideoDatabase>> opened =
      store::CatalogStore(dir).Open();
  EXPECT_TRUE(opened.ok()) << opened.status();
  std::vector<std::string> names;
  if (!opened.ok()) return names;
  for (int id = 0; id < (*opened)->video_count(); ++id) {
    names.push_back((*opened)->GetEntry(id).value()->name);
  }
  return names;
}

std::string ManifestBytes(const std::string& dir, uint64_t generation) {
  Result<std::string> bytes = ReadFileToString(
      dir + StrFormat("/MANIFEST-%06llu",
                      static_cast<unsigned long long>(generation)));
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

// The committer's reference: a second store directory that receives a
// CatalogStore::Save of the full catalog in name order once per generation
// the committer's directory gains.
class ShadowStore {
 public:
  explicit ShadowStore(std::string dir) : dir_(std::move(dir)) {}

  void Upsert(const CatalogEntry& entry) { catalog_[entry.name] = entry; }

  // Saves the catalog as the next shadow generation; returns its database.
  std::unique_ptr<VideoDatabase> Save() {
    auto db = std::make_unique<VideoDatabase>();
    for (const auto& [name, entry] : catalog_) {
      EXPECT_TRUE(db->Restore(entry).ok()) << name;
    }
    Result<store::SaveStats> saved = store::CatalogStore(dir_).Save(*db);
    EXPECT_TRUE(saved.ok()) << saved.status();
    return db;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::map<std::string, CatalogEntry> catalog_;
};

// Generation `generation` of `dir` is byte-identical to the shadow's: the
// same manifest file, and a FRAMEINDEX equal to FrameIndex::Build of the
// shadow's catalog.
void ExpectMatchesShadow(const std::string& dir, const ShadowStore& shadow,
                         const VideoDatabase& db, uint64_t generation) {
  EXPECT_EQ(ManifestBytes(dir, generation),
            ManifestBytes(shadow.dir(), generation))
      << "generation " << generation;
  Result<index::FrameIndex> persisted =
      index::OpenFrameIndex(dir, generation);
  ASSERT_TRUE(persisted.ok()) << persisted.status();
  EXPECT_EQ(persisted->Serialize(), index::FrameIndex::Build(db).Serialize())
      << "generation " << generation;
}

class CommitterTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new VideoDatabase();
    ASSERT_TRUE(
        db_->Ingest(testsupport::CachedRender(TenShotStoryboard()).video)
            .ok());
    ASSERT_TRUE(
        db_->Ingest(testsupport::CachedRender(FriendsStoryboard()).video)
            .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  // Analysed entry `id` of the fixture, published under `name`.
  static CatalogEntry EntryNamed(int id, const std::string& name) {
    CatalogEntry entry = *db_->GetEntry(id).value();
    entry.name = name;
    return entry;
  }

  static VideoDatabase* db_;
};

VideoDatabase* CommitterTest::db_ = nullptr;

TEST_F(CommitterTest, PublishingAnExistingNameReplacesThatEntry) {
  const std::string dir = FreshDir("upsert");
  CommitterOptions options;
  options.dir = dir;
  Committer committer(options);
  committer.Init();

  ASSERT_TRUE(committer.Publish(EntryNamed(0, "clip")).ok());
  ASSERT_TRUE(committer.Publish(EntryNamed(0, "other")).ok());
  CatalogEntry replacement = EntryNamed(1, "clip");
  ASSERT_TRUE(committer.Publish(replacement).ok());

  EXPECT_EQ(StoreNames(dir), (std::vector<std::string>{"clip", "other"}));
  std::vector<std::string> bytes = StoreEntryBytes(dir);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], EntryBytes(replacement));

  // A second committer adopts the store as its base and keeps upserting.
  Committer reopened(options);
  reopened.Init();
  ASSERT_TRUE(reopened.Publish(EntryNamed(0, "clip")).ok());
  bytes = StoreEntryBytes(dir);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], EntryBytes(EntryNamed(0, "clip")));
}

TEST_F(CommitterTest, VideoIdsFollowNameOrderWhateverThePublishOrder) {
  const std::vector<std::string> sorted = {"alpha", "bravo", "charlie",
                                           "delta"};
  const std::vector<std::vector<int>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::vector<std::string> first_bytes;
  for (size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE("publish order " + std::to_string(o));
    const std::string dir = FreshDir("order_" + std::to_string(o));
    CommitterOptions options;
    options.dir = dir;
    Committer committer(options);
    committer.Init();
    for (int i : orders[o]) {
      ASSERT_TRUE(committer
                      .Publish(EntryNamed(i % 2, sorted[static_cast<size_t>(i)]))
                      .ok());
    }
    EXPECT_EQ(StoreNames(dir), sorted);
    // Same content, same order: the published bytes do not depend on
    // which publish arrived first.
    if (o == 0) {
      first_bytes = StoreEntryBytes(dir);
    } else {
      EXPECT_EQ(StoreEntryBytes(dir), first_bytes);
    }
  }
}

TEST_F(CommitterTest, GenerationsAreContiguousAndEachHasItsFrameIndex) {
  const std::string dir = FreshDir("generations");
  CommitterOptions options;
  options.dir = dir;
  Committer committer(options);
  committer.Init();

  const std::vector<CatalogEntry> publishes = {
      EntryNamed(0, "b"), EntryNamed(1, "a"), EntryNamed(1, "b"),
      EntryNamed(0, "c")};
  store::CatalogStore catalog_store(dir);
  for (size_t i = 0; i < publishes.size(); ++i) {
    Result<stream::PublishReceipt> receipt = committer.Publish(publishes[i]);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    const uint64_t want = static_cast<uint64_t>(i + 1);
    EXPECT_EQ(receipt->generation, want);
    EXPECT_EQ(committer.stats().last_generation, want);

    // The generation's FRAMEINDEX is exactly the index of that catalog.
    store::OpenStats open_stats;
    Result<std::unique_ptr<VideoDatabase>> opened =
        catalog_store.Open(&open_stats);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_EQ(open_stats.generation, want);
    Result<index::FrameIndex> persisted = index::OpenFrameIndex(dir, want);
    ASSERT_TRUE(persisted.ok()) << persisted.status();
    EXPECT_EQ(persisted->Serialize(),
              index::FrameIndex::Build(**opened).Serialize())
        << "generation " << want;
  }
  EXPECT_EQ(committer.stats().publishes, publishes.size());
  for (uint64_t g = 1; g <= publishes.size(); ++g) {
    EXPECT_TRUE(catalog_store.ManifestAt(g).ok()) << "generation " << g;
  }
}

TEST_F(CommitterTest, ReloadIsCountedOkAgainstALiveServerAndFailedWhenClosed) {
  const std::string dir = FreshDir("reload");
  {
    CommitterOptions seed;
    seed.dir = dir;
    Committer committer(seed);
    committer.Init();
    ASSERT_TRUE(committer.Publish(EntryNamed(0, "base")).ok());
  }

  serve::Server server;
  ASSERT_TRUE(server.Start(dir).ok());
  ASSERT_EQ(server.snapshot()->video_count(), 1);
  {
    CommitterOptions options;
    options.dir = dir;
    options.reload_host = "127.0.0.1";
    options.reload_port = server.port();
    Committer committer(options);
    committer.Init();
    Result<stream::PublishReceipt> receipt =
        committer.Publish(EntryNamed(1, "added"));
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    EXPECT_EQ(receipt->reloads_ok, 1);
    EXPECT_EQ(receipt->reload_failures, 0);
    EXPECT_EQ(committer.stats().reloads_ok, 1);
    EXPECT_EQ(committer.stats().reload_failures, 0);
    // The RELOAD returned before Publish did: the server already serves
    // the new generation.
    EXPECT_EQ(server.snapshot()->video_count(), 2);
  }
  server.Stop();

  // A port nothing listens on: the reload fails, the publish does not.
  Result<int> listener = serve::ListenTcp("127.0.0.1", 0, 1);
  ASSERT_TRUE(listener.ok()) << listener.status();
  Result<int> closed_port = serve::LocalPort(*listener);
  serve::CloseFd(*listener);
  ASSERT_TRUE(closed_port.ok()) << closed_port.status();
  CommitterOptions options;
  options.dir = dir;
  options.reload_host = "127.0.0.1";
  options.reload_port = *closed_port;
  Committer committer(options);
  committer.Init();
  Result<stream::PublishReceipt> receipt =
      committer.Publish(EntryNamed(0, "another"));
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->reloads_ok, 0);
  EXPECT_EQ(receipt->reload_failures, 1);
  EXPECT_EQ(committer.stats().reloads_ok, 0);
  EXPECT_EQ(committer.stats().reload_failures, 1);
  EXPECT_EQ(StoreNames(dir).size(), 3u);
}

// A solo Pipeline and a one-stream StreamFarm both publish through a
// Committer, so the same clip lands as the same bytes in the same id order.
// Each store is seeded with a video whose name sorts after the clip's: a
// publisher that appended the streamed clip last would put it at id 1.
TEST_F(CommitterTest, SoloPipelineAndOneStreamFarmPublishTheSameStore) {
  const Video& video = testsupport::CachedRender(TenShotStoryboard()).video;
  const CatalogEntry base = EntryNamed(1, "zz-base");
  ASSERT_LT(video.name(), base.name);

  auto seeded = [&](const std::string& tag) {
    const std::string dir = FreshDir(tag);
    VideoDatabase seed;
    EXPECT_TRUE(seed.Restore(base).ok());
    EXPECT_TRUE(store::CatalogStore(dir).Save(seed).ok());
    return dir;
  };

  const std::string solo_dir = seeded("solo");
  {
    CommitterOptions commit;
    commit.dir = solo_dir;
    Committer committer(commit);
    committer.Init();
    stream::PipelineOptions options;
    options.publish_dir = solo_dir;
    options.checkpoint_every_shots = 3;
    options.publish = [&committer](const CatalogEntry& entry) {
      return committer.Publish(entry);
    };
    std::unique_ptr<stream::FrameSource> source =
        stream::MakeVideoFrameSource(video);
    stream::Pipeline pipeline(options);
    Result<stream::PipelineResult> result = pipeline.Run(source.get());
    ASSERT_TRUE(result.ok()) << result.status();
  }

  const std::string farm_dir = seeded("farm");
  {
    FarmOptions options;
    options.signature_workers = 1;
    options.publish_dir = farm_dir;
    options.checkpoint_every_shots = 3;
    StreamFarm farm(options);
    std::vector<StreamSpec> specs(1);
    specs[0].source = stream::MakeVideoFrameSource(video);
    Result<FarmReport> report = farm.Run(std::move(specs));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->streams.size(), 1u);
    EXPECT_EQ(report->streams[0].state, StreamState::kFinished);
  }

  EXPECT_EQ(StoreNames(solo_dir),
            (std::vector<std::string>{video.name(), base.name}));
  std::vector<std::string> solo = StoreEntryBytes(solo_dir);
  ASSERT_EQ(solo.size(), 2u);
  EXPECT_EQ(solo, StoreEntryBytes(farm_dir));
  EXPECT_EQ(solo[1], EntryBytes(base));
}

// A seeded mix of publishes — new names sorting before every existing one
// (shifting every id), new names anywhere, replacements, identical
// re-publishes, and a fresh committer that Inits mid-sequence — publishes
// after every step exactly what a full Save of the catalog publishes.
TEST_F(CommitterTest, EveryPublishMatchesAFullSaveOfTheCatalog) {
  const std::string dir = FreshDir("shadow");
  ShadowStore shadow(FreshDir("shadow_ref"));
  CommitterOptions options;
  options.dir = dir;
  std::optional<Committer> committer(std::in_place, options);
  committer->Init();

  Pcg32 rng(0xc0331u);
  std::map<std::string, CatalogEntry> published;
  int front = 1000;  // "v<front>" sorts before every name made so far
  int reinits = 0;
  for (uint64_t generation = 1; generation <= 48; ++generation) {
    CatalogEntry entry;
    std::string step;
    const uint32_t kind =
        published.size() < 2 ? 0 : rng.NextBounded(10);
    if (kind <= 2) {
      step = "new first";
      entry = EntryNamed(static_cast<int>(rng.NextBounded(2)),
                         StrFormat("v%04d", front--));
    } else if (kind <= 4) {
      step = "new anywhere";
      entry = EntryNamed(static_cast<int>(rng.NextBounded(2)),
                         StrFormat("v%04u", 1000 + rng.NextBounded(9000)));
    } else {
      auto it = published.begin();
      std::advance(it, rng.NextBounded(
                           static_cast<uint32_t>(published.size())));
      entry = it->second;
      if (kind <= 7) {
        step = "replace";
        entry = EntryNamed(static_cast<int>(rng.NextBounded(2)), it->first);
        entry.classification.form_id =
            static_cast<int>(rng.NextBounded(1000));
      } else {
        step = "re-publish";
      }
    }
    if (generation % 13 == 0) {
      // A fresh committer adopts the store and carries on from it.
      committer.emplace(options);
      committer->Init();
      ++reinits;
    }
    SCOPED_TRACE(step + " '" + entry.name + "' at generation " +
                 std::to_string(generation));

    Result<stream::PublishReceipt> receipt = committer->Publish(entry);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    ASSERT_EQ(receipt->generation, generation);
    published[entry.name] = entry;
    shadow.Upsert(entry);
    std::unique_ptr<VideoDatabase> db = shadow.Save();
    ExpectMatchesShadow(dir, shadow, *db, generation);
    // Init's picture and every publish's own keep the next one O(changed).
    EXPECT_EQ(committer->stats().rederives, 0);
  }
  EXPECT_EQ(reinits, 3);
  EXPECT_GT(published.size(), 10u);
}

// Each fault point of a publish's segment and manifest writes fails that
// publish. The committer's picture stays what the disk holds: the next
// publish (hook disarmed) lands the next contiguous, loadable generation,
// equal to a full Save of the catalog the disk actually committed.
TEST_F(CommitterTest, AFailedPublishNeverLeavesThePictureAheadOfTheDisk) {
  int countdown = -1;  // hook calls left before the crash; -1: never crash
  std::vector<std::string> points;
  CommitterOptions options;
  options.fault_hook = [&](std::string_view point) {
    points.emplace_back(point);
    return countdown < 0 || countdown-- > 0;
  };
  const std::vector<CatalogEntry> base = {
      EntryNamed(0, "m-one"), EntryNamed(1, "m-two"), EntryNamed(0, "m-three")};
  CatalogEntry replacement = EntryNamed(1, "m-two");
  replacement.classification.form_id = 7;
  const std::vector<CatalogEntry> failing = {replacement,
                                             EntryNamed(1, "a-first")};
  const CatalogEntry after = EntryNamed(1, "z-last");

  for (size_t f = 0; f < failing.size(); ++f) {
    // The fault points one publish of failing[f] consults.
    std::vector<std::string> publish_points;
    {
      options.dir = FreshDir("faults_probe");
      Committer committer(options);
      committer.Init();
      for (const CatalogEntry& entry : base) {
        ASSERT_TRUE(committer.Publish(entry).ok());
      }
      points.clear();
      ASSERT_TRUE(committer.Publish(failing[f]).ok());
      publish_points = points;
    }
    ASSERT_EQ(publish_points.size(), 8u) << "a segment and a manifest";

    for (size_t crash = 0; crash < publish_points.size(); ++crash) {
      const std::string& point = publish_points[crash];
      SCOPED_TRACE("publish " + std::to_string(f) + " fails at " + point);
      options.dir = FreshDir("faults_" + std::to_string(crash));
      ShadowStore shadow(FreshDir("faults_ref_" + std::to_string(crash)));
      countdown = -1;
      Committer committer(options);
      committer.Init();
      uint64_t generation = 0;
      for (const CatalogEntry& entry : base) {
        ASSERT_TRUE(committer.Publish(entry).ok());
        shadow.Upsert(entry);
        shadow.Save();
        ++generation;
      }

      countdown = static_cast<int>(crash);
      EXPECT_FALSE(committer.Publish(failing[f]).ok());
      countdown = -1;
      // Only a crash after the manifest's rename leaves the publish
      // committed on disk; only then must the next publish re-derive.
      const bool landed = point == "manifest:dirsync";
      if (landed) {
        shadow.Upsert(failing[f]);
        shadow.Save();
        ++generation;
      }
      EXPECT_EQ(store::CatalogStore(options.dir).CurrentManifest()
                    .value()
                    .generation,
                generation);

      Result<stream::PublishReceipt> receipt = committer.Publish(after);
      ASSERT_TRUE(receipt.ok()) << receipt.status();
      ++generation;
      EXPECT_EQ(receipt->generation, generation);
      shadow.Upsert(after);
      std::unique_ptr<VideoDatabase> db = shadow.Save();
      store::OpenStats open_stats;
      ASSERT_TRUE(store::CatalogStore(options.dir).Open(&open_stats).ok());
      EXPECT_EQ(open_stats.generation, generation);
      ExpectMatchesShadow(options.dir, shadow, *db, generation);
      EXPECT_EQ(committer.stats().rederives, landed ? 1 : 0);
    }
  }
}

// A corrupt segment in the newest generation makes Open fall back a
// generation, while the next publish still extends the newest parseable
// manifest. Refs the committer loaded from the older generation are not
// live there, so the publish writes them again — exactly the writes a full
// Save of the same catalog makes on a copy of the same directory.
TEST_F(CommitterTest, RefsNotLiveInTheExtendedGenerationAreWrittenAgain) {
  const std::string dir = FreshDir("fallback");
  CommitterOptions options;
  options.dir = dir;
  const CatalogEntry a = EntryNamed(0, "a-clip");
  const CatalogEntry b = EntryNamed(1, "b-clip");
  const CatalogEntry c = EntryNamed(1, "c-clip");
  {
    Committer committer(options);
    committer.Init();
    CatalogEntry a_changed = a;
    a_changed.classification.form_id = 3;
    for (const CatalogEntry& entry : {a, b, a_changed}) {
      ASSERT_TRUE(committer.Publish(entry).ok());
    }
  }
  // Flip one payload byte of generation 3's a-clip segment.
  Result<store::Manifest> third = store::CatalogStore(dir).ManifestAt(3);
  ASSERT_TRUE(third.ok()) << third.status();
  const std::string victim = dir + "/" + third->segments[0].file;
  {
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(20);
    const char byte = static_cast<char>(file.get() ^ 0x40);
    file.seekp(20);
    file.put(byte);
  }
  store::OpenStats open_stats;
  ASSERT_TRUE(store::CatalogStore(dir).Open(&open_stats).ok());
  ASSERT_EQ(open_stats.generation, 2u);

  const std::string copy = FreshDir("fallback_copy");
  std::filesystem::copy(dir, copy);
  std::vector<std::string> points;
  options.fault_hook = [&](std::string_view point) {
    points.emplace_back(point);
    return true;
  };
  Committer committer(options);
  committer.Init();
  ASSERT_TRUE(committer.Publish(c).ok());
  const std::vector<std::string> committer_points = points;

  points.clear();
  VideoDatabase db;
  for (const CatalogEntry& entry : {a, b, c}) {
    ASSERT_TRUE(db.Restore(entry).ok());
  }
  store::CatalogStore copy_store(copy,
                                 store::StoreOptions{{}, options.fault_hook});
  ASSERT_TRUE(copy_store.Save(db).ok());
  EXPECT_EQ(committer.stats().rederives, 1);
  EXPECT_EQ(committer_points, points);
  // a-clip's generation-2 segment and c-clip's new one, then the manifest.
  EXPECT_EQ(committer_points.size(), 12u);
  EXPECT_EQ(ManifestBytes(dir, 4), ManifestBytes(copy, 4));
  ASSERT_TRUE(store::CatalogStore(dir).Open(&open_stats).ok());
  EXPECT_EQ(open_stats.generation, 4u);
  EXPECT_EQ(StoreEntryBytes(dir),
            (std::vector<std::string>{EntryBytes(a), EntryBytes(b),
                                      EntryBytes(c)}));
}

}  // namespace
}  // namespace farm
}  // namespace vdb
