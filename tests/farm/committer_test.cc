// The Committer's publish contract. It is the only publisher of the system
// — solo pipelines and every farm tenant commit through it — so its
// guarantees are pinned here directly: upsert by name, video ids in name
// order, contiguous generations, a FRAMEINDEX matching every generation,
// RELOAD accounting, and a solo run publishing exactly what a one-stream
// farm publishes.

#include "farm/committer.h"

#include <unistd.h>

#include <memory>
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
  ASSERT_TRUE(server.Start({dir}).ok());
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
    EXPECT_TRUE(store::SaveDatabaseToStore(seed, dir).ok());
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

}  // namespace
}  // namespace farm
}  // namespace vdb
