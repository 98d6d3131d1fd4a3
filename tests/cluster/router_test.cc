// End-to-end tests of the scatter-gather router against real in-process
// vdbserve backends, anchored by the merge property the whole design
// hangs on: a router over N shard stores answers QUERY / LIST / TREE
// byte-identically to one server started on the shard directories in
// order. The property is swept over a corpus of all 22 Table-5 presets
// for N in {1, 2, 4}. The remaining tests cover point-wise TREE routing,
// degraded mode when a backend dies, replica failover, RELOAD fan-out,
// and the per-shard STATS lanes.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "cluster/shard_store.h"
#include "core/video_database.h"
#include "index/frame_index.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "store/catalog_store.h"
#include "synth/queries.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "tests/support/temp_store.h"
#include "util/fs.h"
#include "util/stopwatch.h"

namespace vdb {
namespace cluster {
namespace {

// Matches the scale/seed the stream and golden suites render the Table-5
// corpus at, so every suite shares one on-disk render cache.
constexpr double kScale = 0.06;
constexpr uint64_t kSeed = 5;
constexpr uint64_t kMapSeed = 17;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "_" + std::to_string(getpid());
}

// A running cluster: one in-process backend per shard directory plus the
// router in front. Backends can be stopped individually to fake outages.
// The split output under `split_dir` is removed once everything serving
// it has stopped.
struct Cluster {
  std::string split_dir;
  std::vector<std::string> shard_dirs;
  std::vector<std::unique_ptr<serve::Server>> backends;
  std::vector<std::unique_ptr<serve::Server>> replicas;
  std::unique_ptr<Router> router;

  ~Cluster() {
    if (router != nullptr) router->Stop();
    for (auto& b : backends) {
      if (b != nullptr) b->Stop();
    }
    for (auto& r : replicas) {
      if (r != nullptr) r->Stop();
    }
    if (!split_dir.empty()) testsupport::RemoveTree(split_dir);
  }
};

class RouterClusterTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    direct_ = new VideoDatabase();
    std::vector<ClipProfile> profiles = Table5Profiles();
    for (size_t i = 0; i < profiles.size(); ++i) {
      Storyboard board = MakeStoryboardFromProfile(profiles[i], kScale, kSeed);
      Result<int> id =
          direct_->Ingest(testsupport::CachedRender(board).video);
      ASSERT_TRUE(id.ok()) << id.status();
      // Classifications so filtered queries exercise the class index.
      VideoClassification c;
      c.genre_ids = {static_cast<int>(i % 3)};
      c.form_id = static_cast<int>(i % 2);
      ASSERT_TRUE(direct_->SetClassification(*id, c).ok());
    }
    testsupport::RemoveTree(SourceStore());
    store::CatalogStore source(SourceStore());
    ASSERT_TRUE(source.Save(*direct_).ok());
  }

  static void TearDownTestSuite() {
    testsupport::RemoveTree(SourceStore());
    delete direct_;
    direct_ = nullptr;
  }

  static std::string SourceStore() { return TempPath("router_src"); }

  // Splits the corpus into `n` shard stores and starts a backend per
  // shard plus the router. `with_replicas` also starts a second server on
  // every shard directory and wires it as the shard's read replica.
  static std::unique_ptr<Cluster> StartCluster(int n, RouterOptions options,
                                               bool with_replicas = false) {
    auto cluster = std::make_unique<Cluster>();
    std::string out = TempPath("router_cluster_" + std::to_string(n));
    testsupport::RemoveTree(out);
    cluster->split_dir = out;
    ShardMap map;
    map.shard_count = n;
    map.seed = kMapSeed;
    Result<SplitStats> split = SplitStore(SourceStore(), out, map);
    EXPECT_TRUE(split.ok()) << split.status();
    if (!split.ok()) return nullptr;

    std::vector<ShardBackends> backends;
    for (int shard = 0; shard < n; ++shard) {
      std::string dir = out + "/" + ShardDirName(shard);
      cluster->shard_dirs.push_back(dir);
      auto server = std::make_unique<serve::Server>();
      Status started = server->Start(dir);
      EXPECT_TRUE(started.ok()) << started;
      if (!started.ok()) return nullptr;
      ShardBackends endpoints;
      endpoints.primary.port = server->port();
      cluster->backends.push_back(std::move(server));
      if (with_replicas) {
        auto replica = std::make_unique<serve::Server>();
        Status replica_started = replica->Start(dir);
        EXPECT_TRUE(replica_started.ok()) << replica_started;
        if (!replica_started.ok()) return nullptr;
        endpoints.replica.port = replica->port();
        cluster->replicas.push_back(std::move(replica));
      }
      backends.push_back(endpoints);
    }
    cluster->router = std::make_unique<Router>(options, std::move(backends));
    Status started = cluster->router->Start();
    EXPECT_TRUE(started.ok()) << started;
    if (!started.ok()) return nullptr;
    return cluster;
  }

  // Router options tuned for tests: fast failure detection, no multi-second
  // waits on dead backends.
  static RouterOptions FastOptions() {
    RouterOptions options;
    options.backend.connect_timeout_ms = 2'000;
    options.backend.read_timeout_ms = 10'000;
    options.backend.retry_backoff_ms = 1;
    options.down_cooldown_ms = 100;
    return options;
  }

  // A single server over the same shard directories in order: the merge
  // the router must be byte-identical to.
  static std::unique_ptr<serve::Server> StartMerged(
      const std::vector<std::string>& shard_dirs) {
    auto server = std::make_unique<serve::Server>();
    Status started = server->Start(shard_dirs);
    EXPECT_TRUE(started.ok()) << started;
    return server;
  }

  static serve::Client Connect(int port) {
    Result<serve::Client> client = serve::Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  // The byte-identity assertion: same wire bytes after erasing the
  // degraded-mode health fields, which are the one deliberate difference
  // (single node says 0/0, the router says ok/total).
  static void ExpectSameBytes(serve::Response got, serve::Response want,
                              const std::string& context) {
    got.shards_ok = 0;
    got.shards_total = 0;
    want.shards_ok = 0;
    want.shards_total = 0;
    EXPECT_EQ(serve::EncodeResponse(got), serve::EncodeResponse(want))
        << context;
  }

  static void ExpectHedgeHidesHungPrimary(int hung_port,
                                          const RouterOptions& options,
                                          const std::vector<std::string>& dirs,
                                          serve::Server* merged);

  static VideoDatabase* direct_;
};

VideoDatabase* RouterClusterTest::direct_ = nullptr;

// ---------------------------------------------------------------------------
// The merge property: router == single node, over the whole corpus.

TEST_F(RouterClusterTest, QueryListTreeMatchSingleNodeAcrossShardCounts) {
  for (int n : {1, 2, 4}) {
    std::unique_ptr<Cluster> cluster = StartCluster(n, FastOptions());
    ASSERT_NE(cluster, nullptr);
    std::unique_ptr<serve::Server> merged =
        StartMerged(cluster->shard_dirs);
    serve::Client via_router = Connect(cluster->router->port());
    serve::Client via_single = Connect(merged->port());

    // LIST first: it also pins the global id layout the other verbs use.
    serve::Request list;
    list.verb = serve::Verb::kList;
    Result<serve::Response> router_list = via_router.Call(list);
    Result<serve::Response> single_list = via_single.Call(list);
    ASSERT_TRUE(router_list.ok()) << router_list.status();
    ASSERT_TRUE(single_list.ok()) << single_list.status();
    EXPECT_EQ(router_list->shards_ok, static_cast<uint32_t>(n));
    EXPECT_EQ(router_list->shards_total, static_cast<uint32_t>(n));
    ExpectSameBytes(*router_list, *single_list,
                    "LIST at " + std::to_string(n) + " shards");
    ASSERT_EQ(router_list->list.videos.size(),
              static_cast<size_t>(direct_->video_count()));

    // QUERY: a grid spanning empty, narrow, and the-whole-index bands,
    // small and large k, plus class-filtered probes.
    std::vector<serve::QueryRequest> queries;
    for (double ba : {0.0, 1.0, 9.0, 60.0, 400.0}) {
      for (double oa : {0.25, 4.0, 30.0}) {
        for (int k : {1, 5, 64}) {
          serve::QueryRequest q;
          q.var_ba = ba;
          q.var_oa = oa;
          q.top_k = k;
          queries.push_back(q);
        }
      }
    }
    for (int genre = 0; genre < 3; ++genre) {
      serve::QueryRequest q;
      q.var_ba = 9.0;
      q.var_oa = 2.0;
      q.top_k = 10;
      q.genre_id = genre;
      queries.push_back(q);
      q.genre_id = -1;
      q.form_id = genre % 2;
      queries.push_back(q);
    }
    // top_k beyond the corpus: the widening loop must stop on the
    // eligible count, not spin to the round cap.
    {
      serve::QueryRequest q;
      q.var_ba = 9.0;
      q.var_oa = 2.0;
      q.top_k = 10'000;
      queries.push_back(q);
    }
    for (const serve::QueryRequest& q : queries) {
      serve::Request request;
      request.verb = serve::Verb::kQuery;
      request.query = q;
      Result<serve::Response> got = via_router.Call(request);
      Result<serve::Response> want = via_single.Call(request);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectSameBytes(*got, *want,
                      "QUERY (" + std::to_string(q.var_ba) + ", " +
                          std::to_string(q.var_oa) + ") k " +
                          std::to_string(q.top_k) + " genre " +
                          std::to_string(q.genre_id) + " form " +
                          std::to_string(q.form_id) + " at " +
                          std::to_string(n) + " shards");
    }

    // TREE: every video id, routed to whichever shard owns it.
    for (int id = 0; id < direct_->video_count(); ++id) {
      serve::Request request;
      request.verb = serve::Verb::kTree;
      request.tree.video_id = id;
      request.tree.max_depth = 2;
      Result<serve::Response> got = via_router.Call(request);
      Result<serve::Response> want = via_single.Call(request);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(got->shards_ok, 1u);
      ExpectSameBytes(*got, *want,
                      "TREE video " + std::to_string(id) + " at " +
                          std::to_string(n) + " shards");
    }

    merged->Stop();
  }
}

// Application errors must carry the same codes and messages as one server.
TEST_F(RouterClusterTest, ErrorsMatchSingleNode) {
  std::unique_ptr<Cluster> cluster = StartCluster(2, FastOptions());
  ASSERT_NE(cluster, nullptr);
  std::unique_ptr<serve::Server> merged = StartMerged(cluster->shard_dirs);
  serve::Client via_router = Connect(cluster->router->port());
  serve::Client via_single = Connect(merged->port());

  std::vector<serve::Request> bad;
  {
    serve::Request r;
    r.verb = serve::Verb::kQuery;
    r.query.top_k = 0;
    bad.push_back(r);
    r.query.top_k = 5;
    r.query.var_ba = -3.0;
    bad.push_back(r);
  }
  {
    serve::Request r;
    r.verb = serve::Verb::kTree;
    r.tree.video_id = direct_->video_count() + 5;
    bad.push_back(r);
  }
  for (const serve::Request& request : bad) {
    Result<serve::Response> got = via_router.Call(request);
    Result<serve::Response> want = via_single.Call(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got->status.code(), want->status.code());
    EXPECT_EQ(got->status.message(), want->status.message());
  }
  merged->Stop();
}

TEST_F(RouterClusterTest, PingIsAnsweredLocally) {
  std::unique_ptr<Cluster> cluster = StartCluster(2, FastOptions());
  ASSERT_NE(cluster, nullptr);
  // Even with every backend gone, PING answers: it reports router health,
  // not shard health.
  for (auto& backend : cluster->backends) backend->Stop();
  serve::Client client = Connect(cluster->router->port());
  Result<std::string> echoed = client.Ping("router-alive");
  ASSERT_TRUE(echoed.ok()) << echoed.status();
  EXPECT_EQ(*echoed, "router-alive");
}

// ---------------------------------------------------------------------------
// Degraded mode.

TEST_F(RouterClusterTest, SurvivingShardsAnswerWhenABackendDies) {
  std::unique_ptr<Cluster> cluster = StartCluster(4, FastOptions());
  ASSERT_NE(cluster, nullptr);
  serve::Client client = Connect(cluster->router->port());

  // Names owned by each shard, learned while everything is healthy.
  Result<serve::ListResponse> healthy = client.List();
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_EQ(healthy->videos.size(),
            static_cast<size_t>(direct_->video_count()));

  const int dead = 2;
  ShardMap map;
  map.shard_count = 4;
  map.seed = kMapSeed;
  cluster->backends[dead]->Stop();

  // QUERY: answered from the survivors, marked degraded, and every
  // suggestion must come from a surviving shard while matching the direct
  // database's answer restricted to those videos.
  serve::Request request;
  request.verb = serve::Verb::kQuery;
  request.query.var_ba = 9.0;
  request.query.var_oa = 2.0;
  request.query.top_k = 20;
  Result<serve::Response> degraded = client.Call(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->status.ok()) << degraded->status;
  EXPECT_EQ(degraded->shards_ok, 3u);
  EXPECT_EQ(degraded->shards_total, 4u);
  ASSERT_FALSE(degraded->query.suggestions.empty());
  for (const serve::SuggestionWire& s : degraded->query.suggestions) {
    EXPECT_NE(map.ShardOf(s.video_name), dead) << s.video_name;
  }

  // The exact survivor answer: a direct database holding only the
  // surviving shards' videos, queried the same way. Global ids differ
  // (the dead shard's span still occupies id space), so compare the
  // (name, shot, distance) content — but build the database in shard
  // layout order (shard 0's videos, then shard 1's, ...), because that is
  // the id order the router breaks distance ties by.
  VideoDatabase survivors;
  for (int shard = 0; shard < 4; ++shard) {
    if (shard == dead) continue;
    for (int id = 0; id < direct_->video_count(); ++id) {
      const CatalogEntry* entry = direct_->GetEntry(id).value();
      if (map.ShardOf(entry->name) != shard) continue;
      CatalogEntry copy = *entry;
      ASSERT_TRUE(survivors.Restore(std::move(copy)).ok());
    }
  }
  VarianceQuery query;
  query.var_ba = request.query.var_ba;
  query.var_oa = request.query.var_oa;
  Result<std::vector<BrowsingSuggestion>> want =
      survivors.Search(query, request.query.top_k);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(degraded->query.suggestions.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    const serve::SuggestionWire& got = degraded->query.suggestions[i];
    const BrowsingSuggestion& expected = (*want)[i];
    EXPECT_EQ(got.video_name, expected.video_name) << "rank " << i;
    EXPECT_EQ(got.shot_index, expected.match.entry.shot_index) << i;
    EXPECT_DOUBLE_EQ(got.distance, expected.match.distance) << i;
  }

  // LIST shrinks to the survivors and is marked degraded.
  serve::Request list;
  list.verb = serve::Verb::kList;
  Result<serve::Response> listed = client.Call(list);
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_EQ(listed->shards_ok, 3u);
  EXPECT_EQ(listed->list.videos.size(),
            static_cast<size_t>(survivors.video_count()));

  // TREE for a video on the dead shard is an error; for a surviving video
  // it still answers.
  int dead_video = -1;
  int live_video = -1;
  for (size_t i = 0; i < healthy->videos.size(); ++i) {
    int shard = map.ShardOf(healthy->videos[i].name);
    if (shard == dead && dead_video < 0) {
      dead_video = healthy->videos[i].video_id;
    }
    if (shard != dead && live_video < 0) {
      live_video = healthy->videos[i].video_id;
    }
  }
  ASSERT_GE(dead_video, 0);
  ASSERT_GE(live_video, 0);
  serve::TreeRequest tree;
  tree.video_id = live_video;
  EXPECT_TRUE(client.Tree(tree).ok());
  tree.video_id = dead_video;
  EXPECT_FALSE(client.Tree(tree).ok());

  // STATS reflects the outage in its health fields.
  serve::Request stats;
  stats.verb = serve::Verb::kStats;
  Result<serve::Response> health = client.Call(stats);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->shards_ok, 3u);
  EXPECT_EQ(health->shards_total, 4u);
  EXPECT_EQ(health->stats.shard_count, 4);
}

TEST_F(RouterClusterTest, AllShardsDownIsAnErrorNotACrash) {
  std::unique_ptr<Cluster> cluster = StartCluster(2, FastOptions());
  ASSERT_NE(cluster, nullptr);
  for (auto& backend : cluster->backends) backend->Stop();
  serve::Client client = Connect(cluster->router->port());
  serve::QueryRequest q;
  q.var_ba = 9.0;
  q.var_oa = 2.0;
  Result<serve::QueryResponse> found = client.Query(q);
  EXPECT_FALSE(found.ok());
  Result<serve::ListResponse> listed = client.List();
  EXPECT_FALSE(listed.ok());
  // The connection survives the application errors.
  EXPECT_TRUE(client.Ping("still-here").ok());
}

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

// ---------------------------------------------------------------------------
// Replicas.

TEST_F(RouterClusterTest, ReplicaTakesOverWhenPrimaryDies) {
  RouterOptions options = FastOptions();
  options.hedge_after_ms = 20;
  std::unique_ptr<Cluster> cluster =
      StartCluster(2, options, /*with_replicas=*/true);
  ASSERT_NE(cluster, nullptr);
  std::unique_ptr<serve::Server> merged = StartMerged(cluster->shard_dirs);
  serve::Client via_router = Connect(cluster->router->port());
  serve::Client via_single = Connect(merged->port());

  // Kill every primary: reads fail over to the replicas and the answers
  // stay complete — shards_ok == shards_total, bytes unchanged.
  for (auto& backend : cluster->backends) backend->Stop();

  serve::Request request;
  request.verb = serve::Verb::kQuery;
  request.query.var_ba = 9.0;
  request.query.var_oa = 2.0;
  request.query.top_k = 10;
  for (int round = 0; round < 3; ++round) {
    Result<serve::Response> got = via_router.Call(request);
    Result<serve::Response> want = via_single.Call(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got->status.ok()) << got->status;
    EXPECT_EQ(got->shards_ok, 2u);
    EXPECT_EQ(got->shards_total, 2u);
    ExpectSameBytes(*got, *want, "failover round " + std::to_string(round));
  }

  serve::Request list;
  list.verb = serve::Verb::kList;
  Result<serve::Response> listed = via_router.Call(list);
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_EQ(listed->shards_ok, 2u);
  merged->Stop();
}

TEST_F(RouterClusterTest, HedgedReadsDoNotChangeAnswers) {
  // Hedge aggressively (0 < hedge_after_ms << typical latency is the
  // interesting regime: most requests race primary and replica).
  RouterOptions options = FastOptions();
  options.hedge_after_ms = 1;
  std::unique_ptr<Cluster> cluster =
      StartCluster(2, options, /*with_replicas=*/true);
  ASSERT_NE(cluster, nullptr);
  std::unique_ptr<serve::Server> merged = StartMerged(cluster->shard_dirs);
  serve::Client via_router = Connect(cluster->router->port());
  serve::Client via_single = Connect(merged->port());

  serve::Request request;
  request.verb = serve::Verb::kQuery;
  request.query.var_ba = 9.0;
  request.query.var_oa = 2.0;
  request.query.top_k = 10;
  Result<serve::Response> want = via_single.Call(request);
  ASSERT_TRUE(want.ok()) << want.status();
  for (int round = 0; round < 20; ++round) {
    Result<serve::Response> got = via_router.Call(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->status.ok()) << got->status;
    ExpectSameBytes(*got, *want, "hedged round " + std::to_string(round));
  }
  merged->Stop();
}

// A two-shard cluster whose shard 0 primary is `hung_port` — a listener
// that never answers — backed by a healthy replica; shard 1 is healthy.
// Hedging must hide the hung primary: Start, a QUERY and a QUERYFRAME all
// finish far inside the hung leg's connect and read timeouts,
// byte-identical to the single-node oracle with every shard answering;
// shard 1's lanes never wait on shard 0; and Stop() does not wait out the
// hung leg.
void RouterClusterTest::ExpectHedgeHidesHungPrimary(
    int hung_port, const RouterOptions& options,
    const std::vector<std::string>& dirs, serve::Server* merged) {
  serve::Server replica0;
  serve::Server primary1;
  ASSERT_TRUE(replica0.Start(dirs[0]).ok());
  ASSERT_TRUE(primary1.Start(dirs[1]).ok());
  std::vector<ShardBackends> backends(2);
  backends[0].primary.port = hung_port;
  backends[0].replica.port = replica0.port();
  backends[1].primary.port = primary1.port();
  Router router(options, std::move(backends));
  // Waiting on the hung leg costs at least this long.
  const double hung_s = std::min(options.backend.connect_timeout_ms,
                                 options.backend.read_timeout_ms) / 1e3;

  Stopwatch start_timer;
  Status started = router.Start();
  ASSERT_TRUE(started.ok()) << started;
  EXPECT_LT(start_timer.ElapsedSeconds(), hung_s / 5);
  Result<serve::Client> via_router =
      serve::Client::Connect("127.0.0.1", router.port());
  Result<serve::Client> via_single =
      serve::Client::Connect("127.0.0.1", merged->port());
  ASSERT_TRUE(via_router.ok()) << via_router.status();
  ASSERT_TRUE(via_single.ok()) << via_single.status();

  serve::Request query;
  query.verb = serve::Verb::kQuery;
  query.query.var_ba = 9.0;
  query.query.var_oa = 2.0;
  query.query.top_k = 10;
  serve::Request frame;
  frame.verb = serve::Verb::kQueryFrame;
  frame.query_frame.top_k = 5;
  frame.query_frame.signature_rgb = SignatureBytes(
      synth::PlantQueries(*direct_, 1, /*seed=*/77,
                          index::FrameIndexOptions().tokenizer)
          .at(0)
          .signature);
  for (const serve::Request& request : {query, frame}) {
    std::string verb(serve::VerbName(request.verb));
    Stopwatch call_timer;
    Result<serve::Response> got = via_router->Call(request);
    EXPECT_LT(call_timer.ElapsedSeconds(), hung_s / 5) << verb;
    Result<serve::Response> want = via_single->Call(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got->status.ok()) << got->status;
    EXPECT_EQ(got->shards_ok, 2u) << verb;
    EXPECT_EQ(got->shards_total, 2u) << verb;
    ExpectSameBytes(*got, *want, verb);
  }

  // Shard 1's lanes record its own arrivals, not the moment shard 0's
  // hedge answered.
  Result<serve::StatsResponse> stats = via_router->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  int lanes = 0;
  for (const serve::VerbStats& v : stats->verbs) {
    if (v.verb == "shard1/list" || v.verb == "shard1/query") {
      ++lanes;
      EXPECT_GT(v.count, 0u) << v.verb;
      EXPECT_LT(v.p99_us, hung_s / 5 * 1e6) << v.verb;
    }
  }
  EXPECT_EQ(lanes, 2);

  Stopwatch stop_timer;
  router.Stop();
  EXPECT_LT(stop_timer.ElapsedSeconds(), 1.0);
}

// A primary that completes the TCP handshake (the kernel queues it in the
// listen backlog) but never accepts, reads or answers: every read sent to
// it hangs until the hedge answers from the replica.
TEST_F(RouterClusterTest, HedgeAnswersPastABlackHolePrimary) {
  std::string out = TempPath("router_black_hole");
  testsupport::RemoveTree(out);
  ShardMap map;
  map.shard_count = 2;
  map.seed = kMapSeed;
  ASSERT_TRUE(SplitStore(SourceStore(), out, map).ok());
  std::vector<std::string> dirs = {out + "/" + ShardDirName(0),
                                   out + "/" + ShardDirName(1)};
  std::unique_ptr<serve::Server> merged = StartMerged(dirs);
  Result<int> hole = serve::ListenTcp("127.0.0.1", 0, /*backlog=*/64);
  ASSERT_TRUE(hole.ok()) << hole.status();
  Result<int> hole_port = serve::LocalPort(*hole);
  ASSERT_TRUE(hole_port.ok()) << hole_port.status();

  RouterOptions options = FastOptions();
  options.hedge_after_ms = 20;
  options.backend.read_timeout_ms = 5'000;
  // Long enough that no read probes the primary again during the test.
  options.down_cooldown_ms = 60'000;
  ExpectHedgeHidesHungPrimary(*hole_port, options, dirs, merged.get());

  // The hedge that won Start's LIST cooled the hung primary down, so every
  // later read went to the replica first: the black hole saw exactly one
  // connection, not one per read.
  ASSERT_TRUE(serve::SetNonBlocking(*hole).ok());
  int connections = 0;
  for (serve::IoOutcome accepted = serve::AcceptSome(*hole);
       accepted.kind == serve::IoOutcome::kProgress;
       accepted = serve::AcceptSome(*hole)) {
    serve::CloseFd(static_cast<int>(accepted.bytes));
    ++connections;
  }
  EXPECT_EQ(connections, 1);

  merged->Stop();
  serve::CloseFd(*hole);
  testsupport::RemoveTree(out);
}

// A primary whose TCP handshake never completes: its listen backlog is
// full, so the kernel drops new SYNs and every dial to it hangs. The dial
// must not hold up the round — the other shard is sent its request at
// once, and the hedge answers from the replica. With no cooldown, every
// read dials the primary again and waits out the hedge.
TEST_F(RouterClusterTest, HedgeAnswersPastAPrimaryThatNeverConnects) {
  std::string out = TempPath("router_syn_drop");
  testsupport::RemoveTree(out);
  ShardMap map;
  map.shard_count = 2;
  map.seed = kMapSeed;
  ASSERT_TRUE(SplitStore(SourceStore(), out, map).ok());
  std::vector<std::string> dirs = {out + "/" + ShardDirName(0),
                                   out + "/" + ShardDirName(1)};
  std::unique_ptr<serve::Server> merged = StartMerged(dirs);
  Result<int> full = serve::ListenTcp("127.0.0.1", 0, /*backlog=*/0);
  ASSERT_TRUE(full.ok()) << full.status();
  Result<int> full_port = serve::LocalPort(*full);
  ASSERT_TRUE(full_port.ok()) << full_port.status();
  // Fill the backlog until a dial hangs.
  std::vector<int> fillers;
  bool hung = false;
  while (!hung && fillers.size() < 8) {
    Result<int> fd = serve::ConnectTcp("127.0.0.1", *full_port, 200);
    hung = !fd.ok();
    if (fd.ok()) fillers.push_back(*fd);
  }
  ASSERT_TRUE(hung) << "backlog never filled";

  RouterOptions options = FastOptions();
  options.hedge_after_ms = 20;
  options.backend.connect_timeout_ms = 5'000;
  options.backend.read_timeout_ms = 5'000;
  options.down_cooldown_ms = 0;
  ExpectHedgeHidesHungPrimary(*full_port, options, dirs, merged.get());

  merged->Stop();
  for (int fd : fillers) serve::CloseFd(fd);
  serve::CloseFd(*full);
  testsupport::RemoveTree(out);
}

// ---------------------------------------------------------------------------
// RELOAD fan-out and per-shard metrics.

TEST_F(RouterClusterTest, ReloadFansOutAndPicksUpNewGenerations) {
  std::unique_ptr<Cluster> cluster = StartCluster(2, FastOptions());
  ASSERT_NE(cluster, nullptr);
  serve::Client client = Connect(cluster->router->port());
  int before = static_cast<int>(client.List().value().videos.size());
  ASSERT_EQ(before, direct_->video_count());

  // Republish every shard at the next generation (same content), then
  // RELOAD through the router: every backend re-opens its store.
  store::CatalogStore source(SourceStore());
  ASSERT_TRUE(source.Save(*direct_).ok());
  ShardMap map;
  map.shard_count = 2;
  map.seed = kMapSeed;
  ASSERT_TRUE(
      SplitStore(SourceStore(), DirName(cluster->shard_dirs[0]), map).ok());

  Result<serve::ReloadResponse> reloaded = client.Reload();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->videos, direct_->video_count());

  Result<serve::StatsResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_generation, 2u);  // min over shards
  EXPECT_EQ(stats->reloads_ok, 2u);        // summed over shards
}

TEST_F(RouterClusterTest, StatsCarryPerShardLatencyLanes) {
  std::unique_ptr<Cluster> cluster = StartCluster(2, FastOptions());
  ASSERT_NE(cluster, nullptr);
  serve::Client client = Connect(cluster->router->port());
  serve::QueryRequest q;
  q.var_ba = 9.0;
  q.var_oa = 2.0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(q).ok());
  }
  Result<serve::StatsResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->videos, direct_->video_count());
  EXPECT_EQ(stats->indexed_shots, static_cast<int>(direct_->index().size()));
  EXPECT_EQ(stats->shard_count, 2);
  uint64_t lane_queries[2] = {0, 0};
  for (const serve::VerbStats& v : stats->verbs) {
    if (v.verb == "shard0/query") lane_queries[0] = v.count;
    if (v.verb == "shard1/query") lane_queries[1] = v.count;
  }
  // Every QUERY fans at least one exact-band probe to every shard.
  EXPECT_GE(lane_queries[0], 3u);
  EXPECT_GE(lane_queries[1], 3u);
}

// serve::Client's reconnect-with-backoff: a pooled connection whose server
// restarted retries transparently instead of sticking poisoned. This is
// the client-side half of what keeps the router's pools usable across
// backend restarts.
TEST_F(RouterClusterTest, ClientWithRetriesSurvivesServerRestart) {
  ShardMap map;
  map.shard_count = 1;
  map.seed = kMapSeed;
  std::string out = TempPath("client_retry_cluster");
  testsupport::RemoveTree(out);
  ASSERT_TRUE(SplitStore(SourceStore(), out, map).ok());
  std::string dir = out + "/" + ShardDirName(0);

  auto first = std::make_unique<serve::Server>();
  ASSERT_TRUE(first->Start(dir).ok());
  int port = first->port();

  serve::ClientOptions with_retries;
  with_retries.max_retries = 3;
  with_retries.retry_backoff_ms = 10;
  Result<serve::Client> client =
      serve::Client::Connect("127.0.0.1", port, with_retries);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Ping("before").ok());

  // Restart the server on the same port behind the client's back. The old
  // connection is dead; the next Call must reconnect and succeed.
  first->Stop();
  serve::ServerOptions same_port;
  same_port.port = port;
  auto second = std::make_unique<serve::Server>(same_port);
  ASSERT_TRUE(second->Start(dir).ok());

  Result<std::string> echoed = client->Ping("after-restart");
  EXPECT_TRUE(echoed.ok()) << echoed.status();
  if (echoed.ok()) {
    EXPECT_EQ(*echoed, "after-restart");
  }

  // Without retries the same sequence sticks poisoned.
  Result<serve::Client> fragile = serve::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(fragile.ok()) << fragile.status();
  ASSERT_TRUE(fragile->Ping("x").ok());
  second->Stop();
  serve::ServerOptions again;
  again.port = port;
  auto third = std::make_unique<serve::Server>(again);
  ASSERT_TRUE(third->Start(dir).ok());
  EXPECT_FALSE(fragile->Ping("y").ok());
  EXPECT_FALSE(fragile->Ping("z").ok());  // still poisoned

  third->Stop();
  testsupport::RemoveTree(out);
}

// ---------------------------------------------------------------------------
// QUERYFRAME scatter-gather.

// The acceptance-criterion merge property for the frame index: a router
// over N shards answers QUERYFRAME byte-identically to one server holding
// the merged catalog, including the probe accounting (shards partition the
// posting lists, so candidates/probed sum to the merged counts exactly).
TEST_F(RouterClusterTest, QueryFrameMatchesSingleNodeAcrossShardCounts) {
  std::vector<synth::PlantedQuery> planted =
      synth::PlantQueries(*direct_, 30, /*seed=*/4242,
                          index::FrameIndexOptions().tokenizer);
  ASSERT_FALSE(planted.empty());

  for (int n : {1, 2, 4}) {
    std::unique_ptr<Cluster> cluster = StartCluster(n, FastOptions());
    ASSERT_NE(cluster, nullptr);
    std::unique_ptr<serve::Server> merged = StartMerged(cluster->shard_dirs);
    serve::Client via_router = Connect(cluster->router->port());
    serve::Client via_single = Connect(merged->port());

    auto expect_same = [&](const serve::QueryFrameRequest& q,
                           const std::string& context) {
      serve::Request request;
      request.verb = serve::Verb::kQueryFrame;
      request.query_frame = q;
      Result<serve::Response> got = via_router.Call(request);
      Result<serve::Response> want = via_single.Call(request);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(got->shards_ok, static_cast<uint32_t>(n)) << context;
      EXPECT_EQ(got->shards_total, static_cast<uint32_t>(n)) << context;
      ExpectSameBytes(*got, *want, context + " at " + std::to_string(n) +
                                       " shards");
    };

    for (size_t i = 0; i < planted.size(); ++i) {
      serve::QueryFrameRequest q;
      q.top_k = (i % 2 == 0) ? 5 : 50;
      q.signature_rgb = SignatureBytes(planted[i].signature);
      expect_same(q, "planted query " + std::to_string(i));
    }

    // A miss (a signature matching nothing) and a degenerate top_k = 1.
    serve::QueryFrameRequest miss;
    miss.top_k = 5;
    miss.signature_rgb = std::string(3 * 16, '\x7f');
    expect_same(miss, "miss query");
    serve::QueryFrameRequest one;
    one.top_k = 1;
    one.signature_rgb = SignatureBytes(planted[0].signature);
    expect_same(one, "top-1 query");

    // Validation errors carry the same code through the router.
    serve::QueryFrameRequest neither;
    Result<serve::QueryFrameResponse> router_err =
        via_router.QueryFrame(neither);
    Result<serve::QueryFrameResponse> single_err =
        via_single.QueryFrame(neither);
    EXPECT_EQ(router_err.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(single_err.status().code(), StatusCode::kInvalidArgument);

    merged->Stop();
  }
}

TEST_F(RouterClusterTest, QueryFrameDegradedModeServesSurvivors) {
  std::unique_ptr<Cluster> cluster = StartCluster(4, FastOptions());
  ASSERT_NE(cluster, nullptr);
  serve::Client client = Connect(cluster->router->port());

  std::vector<synth::PlantedQuery> planted =
      synth::PlantQueries(*direct_, 40, /*seed=*/888,
                          index::FrameIndexOptions().tokenizer);
  ShardMap map;
  map.shard_count = 4;
  map.seed = kMapSeed;

  const int dead = 1;
  cluster->backends[dead]->Stop();

  bool saw_surviving_hit = false;
  for (const synth::PlantedQuery& query : planted) {
    const CatalogEntry* entry = direct_->GetEntry(query.video_id).value();
    serve::QueryFrameRequest request;
    request.top_k = 5;
    request.signature_rgb = SignatureBytes(query.signature);
    Result<serve::QueryFrameResponse> answer = client.QueryFrame(request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    if (map.ShardOf(entry->name) != dead) {
      // The true shot lives on a survivor: still retrieved at score 1.0.
      ASSERT_FALSE(answer->hits.empty()) << entry->name;
      EXPECT_EQ(answer->hits[0].video_name, entry->name);
      EXPECT_EQ(answer->hits[0].shot_index, query.shot_index);
      EXPECT_DOUBLE_EQ(answer->hits[0].score, 1.0);
      saw_surviving_hit = true;
    } else {
      // The true shot died with its shard; whatever comes back must not
      // claim to be from it.
      for (const serve::FrameHitWire& hit : answer->hits) {
        EXPECT_NE(hit.video_name, entry->name);
      }
    }
  }
  EXPECT_TRUE(saw_surviving_hit);

  // The degraded health fields mark the outage.
  serve::Request request;
  request.verb = serve::Verb::kQueryFrame;
  request.query_frame.top_k = 3;
  request.query_frame.signature_rgb =
      SignatureBytes(planted[0].signature);
  Result<serve::Response> degraded = client.Call(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->status.ok()) << degraded->status;
  EXPECT_EQ(degraded->shards_ok, 3u);
  EXPECT_EQ(degraded->shards_total, 4u);

  // All shards down: a typed error, not a crash, and the connection
  // survives it.
  for (auto& backend : cluster->backends) backend->Stop();
  EXPECT_FALSE(client.QueryFrame(request.query_frame).ok());
  EXPECT_TRUE(client.Ping("still-here").ok());
}

}  // namespace
}  // namespace cluster
}  // namespace vdb
