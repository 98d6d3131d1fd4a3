// End-to-end test of the catalog query service: a real Server on a loopback
// ephemeral port, driven through serve::Client. Query and tree responses
// are checked byte-for-byte against the same operations on a directly
// loaded VideoDatabase, and concurrent clients hammer the server through
// RELOADs to prove snapshot swaps are atomic. The suite is in the `serve`
// ctest label and is expected to pass under -DVDB_SANITIZE=thread.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_io.h"
#include "core/video_database.h"
#include "index/frame_index.h"
#include "index/index_store.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "store/catalog_store.h"
#include "synth/presets.h"
#include "synth/queries.h"
#include "tests/support/render_cache.h"
#include "util/binary_io.h"
#include "util/fs.h"
#include "video/video_io.h"  // Fnv1a32

namespace vdb {
namespace serve {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Builds the two catalog files the suite serves:
//  * "both": ten-shot + friends, with classifications — the primary.
//  * "solo": ten-shot only — the RELOAD swap target.
class ServerIntegrationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    direct_ = new VideoDatabase();
    const SyntheticVideo& ten = testsupport::CachedRender(TenShotStoryboard());
    const SyntheticVideo& friends =
        testsupport::CachedRender(FriendsStoryboard());
    ASSERT_TRUE(direct_->Ingest(ten.video).ok());
    ASSERT_TRUE(direct_->Ingest(friends.video).ok());
    VideoClassification drama;
    drama.genre_ids = {0, 2};
    drama.form_id = 1;
    ASSERT_TRUE(direct_->SetClassification(0, drama).ok());
    VideoClassification comedy;
    comedy.genre_ids = {1};
    comedy.form_id = 0;
    ASSERT_TRUE(direct_->SetClassification(1, comedy).ok());
    ASSERT_TRUE(SaveCatalog(*direct_, BothPath()).ok());

    VideoDatabase solo;
    ASSERT_TRUE(solo.Ingest(ten.video).ok());
    ASSERT_TRUE(SaveCatalog(solo, SoloPath()).ok());
  }

  static void TearDownTestSuite() {
    delete direct_;
    direct_ = nullptr;
    std::remove(BothPath().c_str());
    std::remove(SoloPath().c_str());
  }

  // Per-process file names: ctest runs each test of this suite as its own
  // parallel process, and every process writes its own catalog copies.
  static std::string BothPath() {
    return TempPath("serve_both_" + std::to_string(getpid()) + ".vdbcat");
  }
  static std::string SoloPath() {
    return TempPath("serve_solo_" + std::to_string(getpid()) + ".vdbcat");
  }
  static std::string StorePath() {
    return TempPath("serve_store_" + std::to_string(getpid()));
  }

  // A database holding only the primary catalog's first video — the solo
  // content, rebuilt in memory for store publishes.
  static std::unique_ptr<VideoDatabase> SoloDatabase() {
    auto solo = std::make_unique<VideoDatabase>();
    CatalogEntry copy = *direct_->GetEntry(0).value();
    EXPECT_TRUE(solo->Restore(std::move(copy)).ok());
    return solo;
  }

  static void WipeStore() {
    Result<std::vector<std::string>> names = ListDir(StorePath());
    if (names.ok()) {
      for (const std::string& name : *names) {
        std::remove((StorePath() + "/" + name).c_str());
      }
      ::rmdir(StorePath().c_str());
    }
  }

  // Starts a server over the primary catalog on an ephemeral port.
  static std::unique_ptr<Server> StartServer(
      ServerOptions options = ServerOptions()) {
    auto server = std::make_unique<Server>(options);
    Status started = server->Start({BothPath()});
    EXPECT_TRUE(started.ok()) << started;
    EXPECT_GT(server->port(), 0);
    return server;
  }

  static Client Connect(const Server& server) {
    Result<Client> client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  // The server-side wire mapping of a direct VideoDatabase query; the
  // source of truth for the byte-identical comparison.
  static Response ExpectedQueryResponse(const VideoDatabase& db,
                                        const QueryRequest& request) {
    Response expected;
    expected.verb = Verb::kQuery;
    VarianceQuery query;
    query.var_ba = request.var_ba;
    query.var_oa = request.var_oa;
    query.alpha = request.alpha;
    query.beta = request.beta;
    auto found =
        (request.genre_id >= 0 || request.form_id >= 0)
            ? db.SearchWithinClass(
                  query, request.top_k,
                  ClassFilter{request.genre_id, request.form_id})
            : db.Search(query, request.top_k);
    EXPECT_TRUE(found.ok()) << found.status();
    for (const BrowsingSuggestion& s : *found) {
      SuggestionWire wire;
      wire.video_id = s.match.entry.video_id;
      wire.shot_index = s.match.entry.shot_index;
      wire.var_ba = s.match.entry.var_ba;
      wire.var_oa = s.match.entry.var_oa;
      wire.distance = s.match.distance;
      wire.video_name = s.video_name;
      wire.scene_node = s.scene_node;
      wire.scene_label = s.scene_label;
      wire.representative_frame = s.representative_frame;
      expected.query.suggestions.push_back(std::move(wire));
    }
    return expected;
  }

  static VideoDatabase* direct_;
};

VideoDatabase* ServerIntegrationTest::direct_ = nullptr;

TEST_F(ServerIntegrationTest, PingEchoesToken) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  Result<std::string> echoed = client.Ping("are-you-there");
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(*echoed, "are-you-there");
  // A persistent connection answers many requests.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.Ping(std::to_string(i)).value(), std::to_string(i));
  }
}

TEST_F(ServerIntegrationTest, ListMatchesCatalog) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  Result<ListResponse> listed = client.List();
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->videos.size(), 2u);
  for (int id = 0; id < 2; ++id) {
    const CatalogEntry* entry = direct_->GetEntry(id).value();
    const VideoSummary& summary = listed->videos[static_cast<size_t>(id)];
    EXPECT_EQ(summary.video_id, id);
    EXPECT_EQ(summary.name, entry->name);
    EXPECT_EQ(summary.frame_count, entry->frame_count);
    EXPECT_DOUBLE_EQ(summary.fps, entry->fps);
    EXPECT_EQ(summary.shot_count, static_cast<int>(entry->shots.size()));
    EXPECT_EQ(summary.node_count, entry->scene_tree.node_count());
    EXPECT_EQ(summary.genre_ids, entry->classification.genre_ids);
    EXPECT_EQ(summary.form_id, entry->classification.form_id);
  }
}

TEST_F(ServerIntegrationTest, QueryIsByteIdenticalToDirectDatabase) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  // A spread of queries, unfiltered and class-filtered.
  std::vector<QueryRequest> requests;
  for (double ba : {0.0, 3.0, 9.0, 40.0}) {
    for (double oa : {0.5, 4.0}) {
      QueryRequest q;
      q.var_ba = ba;
      q.var_oa = oa;
      q.top_k = 5;
      requests.push_back(q);
    }
  }
  QueryRequest filtered;
  filtered.var_ba = 9.0;
  filtered.var_oa = 1.0;
  filtered.top_k = 10;
  filtered.genre_id = 0;
  requests.push_back(filtered);
  filtered.genre_id = -1;
  filtered.form_id = 0;
  requests.push_back(filtered);

  for (const QueryRequest& q : requests) {
    Request request;
    request.verb = Verb::kQuery;
    request.query = q;
    Result<Response> got = client.Call(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->status.ok()) << got->status;
    Response expected = ExpectedQueryResponse(*direct_, q);
    EXPECT_EQ(EncodeResponse(*got), EncodeResponse(expected))
        << "query (" << q.var_ba << ", " << q.var_oa << ") genre "
        << q.genre_id << " form " << q.form_id
        << " differs from the direct database";
  }
}

TEST_F(ServerIntegrationTest, TreeMatchesDirectSceneTree) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  for (int id = 0; id < 2; ++id) {
    const SceneTree& tree = direct_->GetEntry(id).value()->scene_tree;

    TreeRequest whole;
    whole.video_id = id;
    Result<TreeResponse> full = client.Tree(whole);
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_EQ(full->root, tree.root());
    EXPECT_EQ(full->shot_count, tree.shot_count());
    ASSERT_EQ(full->nodes.size(),
              static_cast<size_t>(tree.node_count()));
    for (const TreeNodeWire& wire : full->nodes) {
      const SceneNode& node = tree.node(wire.id);
      EXPECT_EQ(wire.parent, node.parent);
      EXPECT_EQ(wire.level, node.level);
      EXPECT_EQ(wire.shot_index, node.shot_index);
      EXPECT_EQ(wire.representative_frame, node.representative_frame);
      EXPECT_EQ(wire.label, node.Label());
      EXPECT_EQ(wire.children, node.children);
    }

    // Depth 0: just the root row, children still named for follow-ups.
    TreeRequest shallow;
    shallow.video_id = id;
    shallow.max_depth = 0;
    Result<TreeResponse> top = client.Tree(shallow);
    ASSERT_TRUE(top.ok()) << top.status();
    ASSERT_EQ(top->nodes.size(), 1u);
    EXPECT_EQ(top->nodes[0].id, tree.root());
    EXPECT_EQ(top->nodes[0].children, tree.node(tree.root()).children);

    // Depth 1: root plus its direct children.
    shallow.max_depth = 1;
    Result<TreeResponse> two = client.Tree(shallow);
    ASSERT_TRUE(two.ok()) << two.status();
    EXPECT_EQ(two->nodes.size(),
              1u + tree.node(tree.root()).children.size());
  }
}

TEST_F(ServerIntegrationTest, ApplicationErrorsKeepTheConnectionUsable) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);

  QueryRequest bad_k;
  bad_k.top_k = 0;
  EXPECT_EQ(client.Query(bad_k).status().code(),
            StatusCode::kInvalidArgument);

  QueryRequest bad_var;
  bad_var.var_ba = -1.0;
  bad_var.top_k = 5;
  EXPECT_EQ(client.Query(bad_var).status().code(),
            StatusCode::kInvalidArgument);

  TreeRequest missing;
  missing.video_id = 99;
  EXPECT_EQ(client.Tree(missing).status().code(), StatusCode::kNotFound);

  // The connection survived all three application errors.
  EXPECT_TRUE(client.Ping("still-alive").ok());
}

TEST_F(ServerIntegrationTest, StatsCountRequestsAndCatalogShape) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Ping("x").ok());
  }
  QueryRequest q;
  q.var_ba = 9.0;
  q.var_oa = 1.0;
  ASSERT_TRUE(client.Query(q).ok());

  Result<StatsResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->videos, 2);
  EXPECT_EQ(stats->indexed_shots, static_cast<int>(direct_->index().size()));
  EXPECT_GE(stats->total_connections, 1u);
  EXPECT_GE(stats->active_connections, 1u);
  uint64_t pings = 0;
  uint64_t queries = 0;
  for (const VerbStats& v : stats->verbs) {
    if (v.verb == "ping") pings = v.count;
    if (v.verb == "query") queries = v.count;
  }
  EXPECT_EQ(pings, 3u);
  EXPECT_EQ(queries, 1u);
}

TEST_F(ServerIntegrationTest, ReloadSwapsTheCatalog) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  ASSERT_EQ(client.List().value().videos.size(), 2u);

  Result<ReloadResponse> swapped = client.Reload(SoloPath());
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->videos, 1);
  EXPECT_EQ(client.List().value().videos.size(), 1u);

  // Empty path re-reads the current set — now the solo catalog.
  Result<ReloadResponse> again = client.Reload();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->videos, 1);

  // Swapping back restores the original two.
  ASSERT_TRUE(client.Reload(BothPath()).ok());
  EXPECT_EQ(client.List().value().videos.size(), 2u);
}

TEST_F(ServerIntegrationTest, ReloadFailureKeepsTheOldSnapshot) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);
  Result<ReloadResponse> bad = client.Reload(TempPath("missing.vdbcat"));
  EXPECT_FALSE(bad.ok());
  // The snapshot is untouched and the connection still works.
  EXPECT_EQ(client.List().value().videos.size(), 2u);
}

// The acceptance check: clients querying full tilt through repeated
// RELOADs never see an error and never a torn snapshot — every response
// is internally consistent with exactly one of the two catalogs.
TEST_F(ServerIntegrationTest, ConcurrentClientsThroughReloads) {
  std::unique_ptr<Server> server = StartServer();
  const std::string both_name_0 = direct_->GetEntry(0).value()->name;
  const std::string both_name_1 = direct_->GetEntry(1).value()->name;

  constexpr int kReaders = 4;
  constexpr int kRequestsPerReader = 120;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Result<Client> client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        ADD_FAILURE() << "reader " << t << ": " << client.status();
        failed = true;
        return;
      }
      QueryRequest q;
      q.var_ba = 9.0;
      q.var_oa = 1.0;
      q.top_k = 5;
      for (int i = 0; i < kRequestsPerReader && !failed; ++i) {
        Result<ListResponse> listed = client->List();
        if (!listed.ok()) {
          ADD_FAILURE() << "LIST during reload: " << listed.status();
          failed = true;
          return;
        }
        // A torn snapshot would show a video count or name mix belonging
        // to neither catalog.
        size_t n = listed->videos.size();
        if (n != 1u && n != 2u) {
          ADD_FAILURE() << "torn LIST: " << n << " videos";
          failed = true;
          return;
        }
        if (listed->videos[0].name != both_name_0 ||
            (n == 2u && listed->videos[1].name != both_name_1)) {
          ADD_FAILURE() << "torn LIST: unexpected names";
          failed = true;
          return;
        }
        Result<QueryResponse> found = client->Query(q);
        if (!found.ok()) {
          ADD_FAILURE() << "QUERY during reload: " << found.status();
          failed = true;
          return;
        }
        for (const SuggestionWire& s : found->suggestions) {
          if (s.video_name != both_name_0 && s.video_name != both_name_1) {
            ADD_FAILURE() << "suggestion from unknown video "
                          << s.video_name;
            failed = true;
            return;
          }
        }
      }
    });
  }

  Client admin = Connect(*server);
  for (int round = 0; round < 6 && !failed; ++round) {
    Result<ReloadResponse> swapped =
        admin.Reload(round % 2 == 0 ? SoloPath() : BothPath());
    ASSERT_TRUE(swapped.ok()) << swapped.status();
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
}

// Serving straight from a store directory: STATS reports the generation,
// and RELOAD picks up a generation published while the server runs.
TEST_F(ServerIntegrationTest, StoreBackedServingAndReload) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  ASSERT_TRUE(catalog_store.Save(*SoloDatabase()).ok());

  Server server;
  Status started = server.Start({StorePath()});
  ASSERT_TRUE(started.ok()) << started;
  Client client = Connect(server);
  EXPECT_EQ(client.List().value().videos.size(), 1u);

  Result<StatsResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_generation, 1u);
  EXPECT_EQ(stats->reloads_ok, 0u);
  EXPECT_EQ(stats->reload_failures, 0u);

  // Publish generation 2 (both videos) behind the running server; an empty
  // RELOAD re-opens the store and serves it.
  ASSERT_TRUE(catalog_store.Save(*direct_).ok());
  Result<ReloadResponse> swapped = client.Reload();
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->videos, 2);
  EXPECT_EQ(client.List().value().videos.size(), 2u);

  stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_generation, 2u);
  EXPECT_EQ(stats->reloads_ok, 1u);
  EXPECT_EQ(stats->reload_failures, 0u);
  WipeStore();
}

// A corrupt newest generation: RELOAD succeeds on the fallback generation
// and the skip is charged to reload_failures.
TEST_F(ServerIntegrationTest, StoreReloadFallsBackPastCorruptGeneration) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  ASSERT_TRUE(catalog_store.Save(*direct_).ok());

  Server server;
  ASSERT_TRUE(server.Start({StorePath()}).ok());
  Client client = Connect(server);
  EXPECT_EQ(client.List().value().videos.size(), 2u);

  // Generation 2 goes out half-written: its manifest is torn mid-file.
  ASSERT_TRUE(catalog_store.Save(*SoloDatabase()).ok());
  {
    std::string manifest = StorePath() + "/MANIFEST-000002";
    Result<std::string> contents = ReadFileToString(manifest);
    ASSERT_TRUE(contents.ok()) << contents.status();
    ASSERT_TRUE(WriteFileAtomic(manifest,
                                contents->substr(0, contents->size() / 2))
                    .ok());
  }

  Result<ReloadResponse> swapped = client.Reload();
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->videos, 2);  // generation 1 content
  Result<StatsResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_generation, 1u);
  EXPECT_EQ(stats->reloads_ok, 1u);
  EXPECT_EQ(stats->reload_failures, 1u);
  WipeStore();
}

// Store flavour of the torn-snapshot acceptance check: clients hammer LIST
// and QUERY while generations alternate between the solo and full content
// and RELOADs chase them; every response must be internally consistent
// with exactly one published generation.
TEST_F(ServerIntegrationTest, ConcurrentClientsThroughStoreReloads) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  ASSERT_TRUE(catalog_store.Save(*direct_).ok());

  Server server;
  ASSERT_TRUE(server.Start({StorePath()}).ok());
  const std::string both_name_0 = direct_->GetEntry(0).value()->name;
  const std::string both_name_1 = direct_->GetEntry(1).value()->name;

  constexpr int kReaders = 4;
  constexpr int kRequestsPerReader = 60;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Result<Client> client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ADD_FAILURE() << "reader " << t << ": " << client.status();
        failed = true;
        return;
      }
      QueryRequest q;
      q.var_ba = 9.0;
      q.var_oa = 1.0;
      q.top_k = 5;
      for (int i = 0; i < kRequestsPerReader && !failed; ++i) {
        Result<ListResponse> listed = client->List();
        if (!listed.ok()) {
          ADD_FAILURE() << "LIST during store reload: " << listed.status();
          failed = true;
          return;
        }
        size_t n = listed->videos.size();
        if (n != 1u && n != 2u) {
          ADD_FAILURE() << "torn LIST: " << n << " videos";
          failed = true;
          return;
        }
        if (listed->videos[0].name != both_name_0 ||
            (n == 2u && listed->videos[1].name != both_name_1)) {
          ADD_FAILURE() << "torn LIST: unexpected names";
          failed = true;
          return;
        }
        Result<QueryResponse> found = client->Query(q);
        if (!found.ok()) {
          ADD_FAILURE() << "QUERY during store reload: " << found.status();
          failed = true;
          return;
        }
        for (const SuggestionWire& s : found->suggestions) {
          if (s.video_name != both_name_0 && s.video_name != both_name_1) {
            ADD_FAILURE() << "suggestion from unknown video "
                          << s.video_name;
            failed = true;
            return;
          }
        }
      }
    });
  }

  std::unique_ptr<VideoDatabase> solo = SoloDatabase();
  Client admin = Connect(server);
  for (int round = 0; round < 6 && !failed; ++round) {
    // Publish the next generation, then chase it with an empty RELOAD.
    Result<store::SaveStats> published =
        catalog_store.Save(round % 2 == 0 ? *solo : *direct_);
    ASSERT_TRUE(published.ok()) << published.status();
    Result<ReloadResponse> swapped = admin.Reload();
    ASSERT_TRUE(swapped.ok()) << swapped.status();
  }
  for (std::thread& reader : readers) {
    reader.join();
  }

  Result<StatsResponse> stats = admin.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->reloads_ok, 6u);
  EXPECT_EQ(stats->reload_failures, 0u);
  EXPECT_EQ(stats->store_generation, 7u);
  WipeStore();
}

TEST_F(ServerIntegrationTest, BusyRejectionBeyondMaxConnections) {
  ServerOptions options;
  options.max_connections = 1;
  std::unique_ptr<Server> server = StartServer(options);

  Client first = Connect(*server);
  ASSERT_TRUE(first.Ping("claimed").ok());  // occupies the only slot

  Result<Client> second = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(second.ok()) << second.status();
  Request ping;
  ping.verb = Verb::kPing;
  Result<Response> rejected = second->Call(ping);
  // The BUSY frame may arrive as this call's response, or the write may
  // race the server's close; either way the error must say so.
  if (rejected.ok()) {
    EXPECT_EQ(rejected->verb, Verb::kError);
    EXPECT_EQ(rejected->status.code(), StatusCode::kFailedPrecondition);
  } else {
    EXPECT_EQ(rejected.status().code(), StatusCode::kIoError);
  }

  // The admitted connection is unaffected, and closing it frees the slot.
  EXPECT_TRUE(first.Ping("still-mine").ok());
  first.Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    Result<Client> third = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(third.ok()) << third.status();
    if (third->Ping("retry").ok()) {
      return;  // slot reclaimed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot never freed after the first connection closed";
}

TEST_F(ServerIntegrationTest, MalformedPayloadGetsErrorFrameAndSurvives) {
  std::unique_ptr<Server> server = StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status();

  // Sound frame, nonsense payload: QUERY wants 44 bytes, gets 2.
  ASSERT_TRUE(
      WriteAll(*fd, EncodeFrame(Verb::kQuery, /*is_response=*/false, "xx"))
          .ok());
  Result<Frame> reply = ReadFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<Response> error = DecodeResponse(reply->header, reply->payload);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->verb, Verb::kError);
  EXPECT_FALSE(error->status.ok());

  // The framing layer stayed in sync, so the connection still serves.
  Request ping;
  ping.verb = Verb::kPing;
  ping.ping_token = "after-garbage";
  ASSERT_TRUE(WriteAll(*fd, EncodeRequest(ping)).ok());
  Result<Frame> pong = ReadFrame(*fd);
  ASSERT_TRUE(pong.ok()) << pong.status();
  Result<Response> echoed = DecodeResponse(pong->header, pong->payload);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed->ping_token, "after-garbage");
  CloseFd(*fd);
}

TEST_F(ServerIntegrationTest, GarbageBytesGetErrorFrameThenDisconnect) {
  std::unique_ptr<Server> server = StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(WriteAll(*fd, std::string(64, 'Z')).ok());
  Result<Frame> reply = ReadFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<Response> error = DecodeResponse(reply->header, reply->payload);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->verb, Verb::kError);
  EXPECT_FALSE(error->status.ok());
  // An unsynchronised stream is dropped: the next read sees EOF — or a
  // reset, since the server closed with our unread garbage still queued.
  StatusCode code = ReadFrame(*fd).status().code();
  EXPECT_TRUE(code == StatusCode::kNotFound || code == StatusCode::kIoError)
      << StatusCodeName(code);
  CloseFd(*fd);
}

TEST_F(ServerIntegrationTest, StopDrainsAndDisconnects) {
  std::unique_ptr<Server> server = StartServer();
  int port = server->port();
  Client client = Connect(*server);
  ASSERT_TRUE(client.Ping("before-stop").ok());

  server->Stop();
  server->Stop();  // idempotent

  // The open connection was shut down...
  EXPECT_FALSE(client.Ping("after-stop").ok());
  // ...and nobody new gets in.
  EXPECT_FALSE(Client::Connect("127.0.0.1", port,
                               ClientOptions{.connect_timeout_ms = 500})
                   .ok());
}

TEST_F(ServerIntegrationTest, StartFailsCleanlyOnBadCatalog) {
  Server server;
  Status started = server.Start({TempPath("nope.vdbcat")});
  EXPECT_FALSE(started.ok());
  // And a bad port is rejected without leaking the loaded catalog.
  ServerOptions options;
  options.port = 70000;
  Server bad_port(options);
  EXPECT_FALSE(bad_port.Start({BothPath()}).ok());
}

// ---- QUERYFRAME: the v3 verb end to end ----

// The wire form of a signature: 3 bytes per TBA pixel.
std::string SignatureBytes(const Signature& signature) {
  std::string bytes;
  bytes.reserve(signature.size() * 3);
  for (const PixelRGB& pixel : signature) {
    bytes.push_back(static_cast<char>(pixel.r));
    bytes.push_back(static_cast<char>(pixel.g));
    bytes.push_back(static_cast<char>(pixel.b));
  }
  return bytes;
}

TEST_F(ServerIntegrationTest, QueryFrameBySignatureMatchesDirectIndex) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);

  index::FrameIndex direct_index = index::FrameIndex::Build(*direct_);
  std::vector<synth::PlantedQuery> planted = synth::PlantQueries(
      *direct_, 20, /*seed=*/271, direct_index.options().tokenizer);
  ASSERT_FALSE(planted.empty());
  for (const synth::PlantedQuery& query : planted) {
    QueryFrameRequest request;
    request.top_k = 5;
    request.signature_rgb = SignatureBytes(query.signature);
    Result<QueryFrameResponse> served = client.QueryFrame(request);
    ASSERT_TRUE(served.ok()) << served.status();

    index::FrameQueryStats stats;
    std::vector<index::FrameHit> expected =
        direct_index.QuerySignature(query.signature, 5, &stats);
    EXPECT_EQ(served->query_tokens, stats.query_tokens);
    EXPECT_EQ(served->candidates, stats.candidates);
    EXPECT_EQ(served->probed, stats.probed);
    ASSERT_EQ(served->hits.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(served->hits[i].video_id, expected[i].video_id);
      EXPECT_EQ(served->hits[i].shot_index, expected[i].shot_index);
      EXPECT_DOUBLE_EQ(served->hits[i].score, expected[i].score);
      EXPECT_EQ(served->hits[i].video_name,
                direct_->GetEntry(expected[i].video_id).value()->name);
    }
    // The planted shot itself is in the answer, at score 1.0.
    ASSERT_FALSE(served->hits.empty());
    EXPECT_EQ(served->hits[0].video_id, query.video_id);
    EXPECT_EQ(served->hits[0].shot_index, query.shot_index);
    EXPECT_DOUBLE_EQ(served->hits[0].score, 1.0);
  }
}

TEST_F(ServerIntegrationTest, QueryFrameByRawFrameFindsItsShot) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);

  // Ship an actual rendered frame; the server reduces it with the same
  // deterministic kernels ingest used, so the sketch-sampled first frame of
  // any shot comes back as a score-1.0 hit on that shot.
  const SyntheticVideo& ten = testsupport::CachedRender(TenShotStoryboard());
  const CatalogEntry* entry = direct_->GetEntry(0).value();
  ASSERT_GE(entry->shots.size(), 3u);
  const Shot& shot = entry->shots[2];
  const ::vdb::Frame& frame = ten.video.frame(shot.start_frame);

  QueryFrameRequest request;
  request.top_k = 3;
  request.width = frame.width();
  request.height = frame.height();
  request.frame_rgb.reserve(frame.pixel_count() * 3);
  for (const PixelRGB& pixel : frame.pixels()) {
    request.frame_rgb.push_back(static_cast<char>(pixel.r));
    request.frame_rgb.push_back(static_cast<char>(pixel.g));
    request.frame_rgb.push_back(static_cast<char>(pixel.b));
  }
  Result<QueryFrameResponse> served = client.QueryFrame(request);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->hits.empty());
  EXPECT_EQ(served->hits[0].video_id, 0);
  EXPECT_EQ(served->hits[0].shot_index, 2);
  EXPECT_DOUBLE_EQ(served->hits[0].score, 1.0);
  EXPECT_EQ(served->hits[0].video_name, entry->name);
}

TEST_F(ServerIntegrationTest, QueryFrameValidationKeepsConnectionUsable) {
  std::unique_ptr<Server> server = StartServer();
  Client client = Connect(*server);

  QueryFrameRequest neither;  // no signature, no frame
  EXPECT_EQ(client.QueryFrame(neither).status().code(),
            StatusCode::kInvalidArgument);

  QueryFrameRequest both;
  both.signature_rgb = std::string(39, '\x11');
  both.width = 4;
  both.height = 4;
  both.frame_rgb = std::string(4 * 4 * 3, '\x22');
  EXPECT_EQ(client.QueryFrame(both).status().code(),
            StatusCode::kInvalidArgument);

  QueryFrameRequest bad_k;
  bad_k.signature_rgb = std::string(39, '\x11');
  bad_k.top_k = 0;
  EXPECT_EQ(client.QueryFrame(bad_k).status().code(),
            StatusCode::kInvalidArgument);

  // Application errors never poison the connection.
  Result<std::string> pong = client.Ping("still-here");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(*pong, "still-here");
}

TEST_F(ServerIntegrationTest, ReloadSwapsTheFrameIndex) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  std::unique_ptr<VideoDatabase> solo = SoloDatabase();
  Result<store::SaveStats> first = catalog_store.Save(*solo);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(index::SaveFrameIndex(StorePath(), first->generation,
                                    index::FrameIndex::Build(*solo))
                  .ok());

  Server server;
  ASSERT_TRUE(server.Start({StorePath()}).ok());
  Client client = Connect(server);

  // A signature planted in video 1 (absent from the solo generation) finds
  // nothing at score 1.0 before the reload...
  index::FrameIndex both_index = index::FrameIndex::Build(*direct_);
  std::vector<synth::PlantedQuery> planted = synth::PlantQueries(
      *direct_, 50, /*seed=*/77, both_index.options().tokenizer);
  const synth::PlantedQuery* in_friends = nullptr;
  for (const synth::PlantedQuery& query : planted) {
    if (query.video_id == 1) {
      in_friends = &query;
      break;
    }
  }
  ASSERT_NE(in_friends, nullptr) << "no planted query landed in video 1";

  QueryFrameRequest request;
  request.top_k = 1;
  request.signature_rgb = SignatureBytes(in_friends->signature);
  Result<QueryFrameResponse> before = client.QueryFrame(request);
  ASSERT_TRUE(before.ok()) << before.status();
  for (const FrameHitWire& hit : before->hits) {
    EXPECT_NE(hit.video_id, 1) << "video 1 is not in generation 1";
  }

  // ...publish both videos plus their index, RELOAD, and the same bytes on
  // the same connection now retrieve the friends shot: catalog and frame
  // index swapped as one unit.
  Result<store::SaveStats> second = catalog_store.Save(*direct_);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(index::SaveFrameIndex(StorePath(), second->generation,
                                    index::FrameIndex::Build(*direct_))
                  .ok());
  ASSERT_TRUE(client.Reload().ok());

  Result<QueryFrameResponse> after = client.QueryFrame(request);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_FALSE(after->hits.empty());
  EXPECT_EQ(after->hits[0].video_id, in_friends->video_id);
  EXPECT_EQ(after->hits[0].shot_index, in_friends->shot_index);
  EXPECT_DOUBLE_EQ(after->hits[0].score, 1.0);
  WipeStore();
}

TEST_F(ServerIntegrationTest, StoreServingPrefersThePersistedIndex) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  Result<store::SaveStats> saved = catalog_store.Save(*direct_);
  ASSERT_TRUE(saved.ok());
  index::FrameIndex built = index::FrameIndex::Build(*direct_);
  ASSERT_TRUE(
      index::SaveFrameIndex(StorePath(), saved->generation, built).ok());

  Result<Server::LoadedSnapshot> loaded =
      Server::LoadCatalogs({StorePath()});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->index_from_store);
  EXPECT_EQ(loaded->frame_index->Serialize(), built.Serialize());

  Server server;
  ASSERT_TRUE(server.Start({StorePath()}).ok());
  std::shared_ptr<const index::FrameIndex> live = server.frame_index();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->Serialize(), built.Serialize());
  WipeStore();
}

// Plants a FRAMEINDEX of the previous segment format (magic "VDBFISEG",
// payload still carrying the per-video Bloom tier's fields, here empty)
// as the index of catalog generation `generation`.
void PlantFormat1FrameIndex(const std::string& dir, uint64_t generation,
                            const index::FrameIndex& frame_index) {
  // Format 2 payload: tokenizer (3 x u32), then counts and postings.
  // Format 1 put a u8 Bloom flag and a double bits-per-key after the
  // tokenizer and a u32 Bloom-filter count after the postings.
  const std::string current = frame_index.Serialize();
  BinaryWriter tier;
  tier.PutU8(0);
  tier.PutDouble(10.0);
  BinaryWriter tail;
  tail.PutU32(0);
  const std::string payload = current.substr(0, 12) + tier.TakeBuffer() +
                              current.substr(12) + tail.TakeBuffer();

  auto checksummed = [](const char* magic, const std::string& body) {
    BinaryWriter header;
    header.PutU32(Fnv1a32(reinterpret_cast<const uint8_t*>(body.data()),
                          body.size()));
    return std::string(magic, 8) + header.TakeBuffer() + body;
  };
  const std::string segment =
      "fidx-00000000000000f1-" + std::to_string(payload.size()) + ".fidx";
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + segment,
                              checksummed("VDBFISEG", payload))
                  .ok());
  BinaryWriter pointer;
  pointer.PutU64(generation);
  pointer.PutString(segment);
  pointer.PutU64(payload.size());
  pointer.PutU32(Fnv1a32(reinterpret_cast<const uint8_t*>(payload.data()),
                         payload.size()));
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + index::FrameIndexPointerName(
                                             generation),
                              checksummed("VDBFIPTR", pointer.TakeBuffer()))
                  .ok());
}

// A generation whose FRAMEINDEX predates the current segment format is
// refused at open, and the server falls back to rebuilding the index in
// memory: QUERYFRAME answers exactly as a freshly built index does.
TEST_F(ServerIntegrationTest, OldFormatFrameIndexFallsBackToRebuild) {
  WipeStore();
  store::CatalogStore catalog_store(StorePath());
  Result<store::SaveStats> saved = catalog_store.Save(*direct_);
  ASSERT_TRUE(saved.ok());
  index::FrameIndex fresh = index::FrameIndex::Build(*direct_);
  PlantFormat1FrameIndex(StorePath(), saved->generation, fresh);

  Result<index::FrameIndex> opened =
      index::OpenFrameIndex(StorePath(), saved->generation);
  ASSERT_FALSE(opened.ok()) << "a format-1 segment was accepted";
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status();

  Result<Server::LoadedSnapshot> loaded =
      Server::LoadCatalogs({StorePath()});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->index_from_store);

  Server server;
  ASSERT_TRUE(server.Start({StorePath()}).ok());
  Client client = Connect(server);
  std::vector<synth::PlantedQuery> planted = synth::PlantQueries(
      *direct_, 20, /*seed=*/314, fresh.options().tokenizer);
  ASSERT_FALSE(planted.empty());
  for (const synth::PlantedQuery& query : planted) {
    QueryFrameRequest request;
    request.top_k = 5;
    request.signature_rgb = SignatureBytes(query.signature);
    Result<QueryFrameResponse> served = client.QueryFrame(request);
    ASSERT_TRUE(served.ok()) << served.status();

    Response expected;
    expected.verb = Verb::kQueryFrame;
    index::FrameQueryStats stats;
    for (const index::FrameHit& hit :
         fresh.QuerySignature(query.signature, 5, &stats)) {
      FrameHitWire wire;
      wire.video_id = hit.video_id;
      wire.shot_index = hit.shot_index;
      wire.score = hit.score;
      wire.video_name = direct_->GetEntry(hit.video_id).value()->name;
      expected.query_frame.hits.push_back(wire);
    }
    expected.query_frame.query_tokens = stats.query_tokens;
    expected.query_frame.candidates = stats.candidates;
    expected.query_frame.probed = stats.probed;
    Response got;
    got.verb = Verb::kQueryFrame;
    got.query_frame = *served;
    EXPECT_EQ(EncodeResponse(got), EncodeResponse(expected));
  }
  server.Stop();
  WipeStore();
}

// The downgrade guard, against a faithful imitation of a v2-era server: it
// rejects the v3 frame at the parser with kInvalidArgument "unsupported
// wire version ..." on a kError response, and the client surfaces that as
// a typed kUnimplemented — never kCorruption, never a raw parse error.
TEST(QueryFrameDowngradeTest, OldServerSurfacesUnimplemented) {
  Result<int> listen_fd = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  Result<int> port = LocalPort(*listen_fd);
  ASSERT_TRUE(port.ok()) << port.status();

  std::thread old_server([fd = *listen_fd] {
    Result<int> conn = AcceptConnection(fd);
    if (!conn.ok()) return;
    // Read the client's frame header to find the payload, drain it, then
    // answer exactly as the v2 parser did: error out on the version byte.
    std::string header(kFrameHeaderSize, '\0');
    if (ReadExact(*conn, header.data(), header.size()).ok()) {
      Result<FrameHeader> decoded = DecodeFrameHeader(header);
      if (decoded.ok() && decoded->payload_size > 0) {
        std::string payload(decoded->payload_size, '\0');
        (void)ReadExact(*conn, payload.data(), payload.size());
      }
    }
    Response error;
    error.verb = Verb::kError;
    error.status =
        Status::InvalidArgument("unsupported wire version 3 (expected 2)");
    (void)WriteAll(*conn, EncodeResponse(error));
    ShutdownFd(*conn);
    CloseFd(*conn);
  });

  Result<Client> client = Client::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok()) << client.status();
  QueryFrameRequest request;
  request.signature_rgb = std::string(39, '\x01');
  Status status = client->QueryFrame(request).status();
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented) << status;
  EXPECT_NE(status.message().find("does not speak wire version 3"),
            std::string::npos)
      << status;

  old_server.join();
  CloseFd(*listen_fd);
}

}  // namespace
}  // namespace serve
}  // namespace vdb
