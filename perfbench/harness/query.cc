// query_direct / query_routed: a closed-loop browse/search mix against one
// in-process Server, or against the same store split over two shards
// behind a Router. Ingest happens only in set-up; the timed phase is reads.
#include <filesystem>
#include <memory>
#include <thread>

#include "cluster/router.h"
#include "cluster/shard_store.h"
#include "common.h"
#include "corpus.h"
#include "layers.h"
#include "mix.h"
#include "serve/client.h"
#include "serve/server.h"

namespace vdbperf {

namespace {

constexpr int kClients = 2;
constexpr int kEventWorkers = 2;
constexpr int kShards = 2;
constexpr int kVideos = 1000;
constexpr int kVideoFrames = 60;
constexpr int kMixLength = 2048;
constexpr int kIngestChunk = 32;
constexpr int kReloads = 12;

// One serving stack: a Server, or shard Servers behind a Router.
struct Stack {
  std::unique_ptr<vdb::serve::Server> server;
  std::vector<std::unique_ptr<vdb::serve::Server>> backends;
  std::unique_ptr<vdb::cluster::Router> router;
  std::vector<std::string> shard_dirs;

  int port() const { return router ? router->port() : server->port(); }
  const vdb::serve::ServerMetrics& front_metrics() const {
    return router ? router->metrics() : server->metrics();
  }
  ~Stack() {
    if (router) router->Stop();
    for (auto& backend : backends) backend->Stop();
    if (server) server->Stop();
  }
};

vdb::Result<std::unique_ptr<Stack>> StartStack(const std::string& store,
                                               bool routed, uint64_t seed) {
  auto stack = std::make_unique<Stack>();
  if (!routed) {
    vdb::serve::ServerOptions options;
    options.event_workers = kEventWorkers;
    stack->server = std::make_unique<vdb::serve::Server>(options);
    VDB_RETURN_IF_ERROR(stack->server->Start({store}));
    return stack;
  }
  vdb::cluster::ShardMap map;
  map.shard_count = kShards;
  map.seed = seed;
  std::string out = store + "-shards";
  std::error_code ec;
  std::filesystem::remove_all(out, ec);
  auto split = vdb::cluster::SplitStore(store, out, map);
  if (!split.ok()) return split.status();
  std::vector<vdb::cluster::ShardBackends> endpoints;
  for (int shard = 0; shard < kShards; ++shard) {
    std::string dir = out + "/" + vdb::cluster::ShardDirName(shard);
    stack->shard_dirs.push_back(dir);
    vdb::serve::ServerOptions options;
    options.event_workers = 1;
    auto backend = std::make_unique<vdb::serve::Server>(options);
    VDB_RETURN_IF_ERROR(backend->Start({dir}));
    vdb::cluster::ShardBackends shard_backends;
    shard_backends.primary.port = backend->port();
    endpoints.push_back(shard_backends);
    stack->backends.push_back(std::move(backend));
  }
  vdb::cluster::RouterOptions options;
  options.frontend.event_workers = kEventWorkers;
  stack->router = std::make_unique<vdb::cluster::Router>(options,
                                                         std::move(endpoints));
  VDB_RETURN_IF_ERROR(stack->router->Start());
  return stack;
}

// Per-kind client latencies of one closed-loop pass.
struct PassStats {
  std::vector<double> latency_us[kNumKinds];
  long ops = 0;
  long degraded = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string placement;  // event worker of each connection

  // Over the whole pass.
  double p(int kind, double q) const {
    return Percentile(latency_us[kind], q);
  }
  double qps() const {
    long answered = 0;
    for (const auto& kind : latency_us) {
      answered += static_cast<long>(kind.size());
    }
    double seconds = static_cast<double>(end_ns - start_ns) * 1e-9;
    return seconds > 0 ? static_cast<double>(answered) / seconds : 0.0;
  }
};

// Runs kClients closed-loop connections over the mix until `seconds` pass;
// every answer is checked against `expected`.
PassStats ClosedLoop(const Stack& stack, const std::vector<MixRequest>& mix,
                     const std::vector<std::string>& expected, double seconds,
                     const RunOptions& options, RunResult* result,
                     std::atomic<long>* checked) {
  PassStats total;
  std::vector<PassStats> per(kClients);
  auto connected = ConnectInTurn(stack.port(), stack.front_metrics(),
                                 kClients, &total.placement);
  if (!connected.ok()) {
    result->Fail("connect: " + connected.status().ToString());
    return total;
  }
  std::vector<vdb::serve::Client>& clients = *connected;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  total.start_ns = start;
  total.end_ns = deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PassStats& mine = per[static_cast<size_t>(c)];
      vdb::serve::Client* client = &clients[static_cast<size_t>(c)];
      size_t i = static_cast<size_t>(c) * mix.size() / kClients;
      while (NowNs() < deadline) {
        const MixRequest& m = mix[i % mix.size()];
        const std::string& want = expected[i % mix.size()];
        ++i;
        uint64_t request_id = Tracer::Get().enabled() ? Tracer::Get().NextId()
                                                      : 0;
        int64_t sent = NowNs();
        vdb::Result<vdb::serve::Response> got = [&] {
          Tracer::Scope span(KindSpanName(m.kind), request_id);
          return client->Call(m.request);
        }();
        int64_t done = NowNs();
        ++mine.ops;
        long n = checked->fetch_add(1) + 1;
        bool ok = got.ok() && got->status.ok();
        if (ok) {
          // TREE is routed to one shard by design; only scatter-gather
          // answers can be degraded.
          if (m.kind != kTree && got->shards_ok < got->shards_total) {
            ++mine.degraded;
          }
          if (n == options.corrupt_answer) CorruptAnswer(&*got);
          ok = AnswerBytes(*got) == want;
        }
        if (!ok) {
          result->Fail(std::string("wrong ") + KindName(m.kind) +
                       " answer (request " + std::to_string(i - 1) + ")");
          if (!got.ok()) break;  // the connection is poisoned
          continue;
        }
        mine.latency_us[m.kind].push_back(
            static_cast<double>(done - sent) * 1e-3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (PassStats& p : per) {
    total.ops += p.ops;
    total.degraded += p.degraded;
    for (int k = 0; k < kNumKinds; ++k) {
      total.latency_us[k].insert(total.latency_us[k].end(),
                                 p.latency_us[k].begin(),
                                 p.latency_us[k].end());
    }
  }
  return total;
}

}  // namespace

bool RunQuery(const RunOptions& options, bool routed, RunResult* result) {
  RequireThreadBudget(options.workload.c_str(), kClients, kClients);
  HostSampler host;
  std::string run_dir = options.work_dir + "/run-" + options.workload;
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);

  auto clips = LoadBaseClips(options.work_dir + "/clips", kBaseClips,
                             kClipScale);
  if (!clips.ok()) {
    std::cerr << "base clips: " << clips.status() << "\n";
    return false;
  }

  // The corpus: distinct derived videos, analysed by batch ingest.
  std::mt19937_64 rng(options.seed);
  int videos = std::max(16, static_cast<int>(kVideos * options.scale));
  std::vector<DerivedSpec> specs;
  for (int v = 0; v < videos; ++v) {
    char name[32];
    std::snprintf(name, sizeof(name), "v%05d", v);
    specs.push_back(MakeDerived(*clips, name, kVideoFrames, &rng));
  }
  vdb::VideoDatabase db;
  auto chunks = IngestSpecs(*clips, specs, kIngestChunk, &db);
  if (!chunks.ok()) {
    std::cerr << "corpus ingest: " << chunks.status() << "\n";
    return false;
  }
  double catalog_seconds = 0.0;
  for (const IngestChunk& chunk : *chunks) {
    catalog_seconds +=
        static_cast<double>(chunk.end_ns - chunk.start_ns) * 1e-9;
  }
  long shots = 0;
  for (int v = 0; v < db.video_count(); ++v) {
    shots += static_cast<long>(db.GetEntry(v).value()->shots.size());
  }
  std::vector<MixRequest> mix = MakeMix(*clips, specs, db, videos,
                                        kMixLength, &rng);

  // Set-up, several times: publish the catalog as a store generation with
  // its FRAMEINDEX and bring the serving stack up on it.
  std::vector<double> setup_s, save_ms, index_ms;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    std::string store = run_dir + "/store-" + std::to_string(rep);
    int64_t start = NowNs();
    auto published = PublishStore(db, store);
    if (!published.ok()) {
      std::cerr << "publish: " << published.status() << "\n";
      return false;
    }
    auto started = StartStack(store, routed, options.seed);
    if (!started.ok()) {
      std::cerr << "serving stack: " << started.status() << "\n";
      return false;
    }
    stack = std::move(*started);
    setup_s.push_back(SecondsSince(start));
    save_ms.push_back(published->save_ms);
    index_ms.push_back(published->index_ms);
  }

  // Freshness on the serving side: RELOAD (for the router, fanned out to
  // every shard) until the first answer from the re-opened generation.
  std::vector<double> queryable_ms;
  {
    auto client = vdb::serve::Client::Connect("127.0.0.1", stack->port());
    for (int rep = 0; client.ok() && rep < kReloads; ++rep) {
      int64_t start = NowNs();
      if (!client->Reload().ok() || !client->Call(mix[0].request).ok()) break;
      queryable_ms.push_back(SecondsSince(start) * 1e3);
    }
    if (queryable_ms.size() != static_cast<size_t>(kReloads)) {
      std::cerr << "reload or first answer failed\n";
      return false;
    }
  }

  // The oracle, outside the timed phase.
  std::vector<std::string> expected;
  expected.reserve(mix.size());
  if (routed) {
    // Byte-identity with one node holding the unsplit catalog (the shard
    // stores in shard order: the router's global id layout).
    vdb::serve::Server merged;
    if (!merged.Start(stack->shard_dirs).ok()) {
      std::cerr << "merged oracle server failed\n";
      return false;
    }
    for (const MixRequest& m : mix) {
      expected.push_back(AnswerBytes(merged.Dispatch(m.request)));
    }
    merged.Stop();
  } else {
    auto snapshot = stack->server->snapshot();
    auto frame_index = stack->server->frame_index();
    for (const MixRequest& m : mix) {
      expected.push_back(
          AnswerBytes(DirectAnswer(*snapshot, *frame_index, m.request)));
    }
  }

  auto backend_counts = [&](vdb::serve::Verb verb) {
    uint64_t n = 0;
    for (auto& backend : stack->backends) {
      const vdb::serve::VerbStats* row =
          FindVerb(backend->metrics().Snapshot().verbs, verb);
      n += row != nullptr ? row->count : 0;
    }
    return n;
  };
  uint64_t backend_query0 = backend_counts(vdb::serve::Verb::kQuery);
  uint64_t backend_frame0 = backend_counts(vdb::serve::Verb::kQueryFrame);

  // The timed phase. Traced runs measure half untraced, half traced.
  std::atomic<long> checked{0};
  bool rss_reset = ResetPeakRss();
  double pass_seconds = options.trace ? options.seconds / 2 : options.seconds;
  PassStats pass = ClosedLoop(*stack, mix, expected, pass_seconds, options,
                              result, &checked);
  double peak_rss = PeakRssMb();
  PassStats traced;
  if (options.trace) {
    Tracer::Get().Enable(true);
    traced = ClosedLoop(*stack, mix, expected, pass_seconds, options, result,
                        &checked);
    Tracer::Get().Enable(false);
  }
  result->attempted += pass.ops + traced.ops;

  double mix_qps = pass.qps();
  double queryable_p50_ms = Percentile(queryable_ms, 0.5);
  long frames = long{videos} * kVideoFrames;
  result->Set("setup_s", Percentile(setup_s, 0.5), "s");
  result->Set("peak_rss_mb", peak_rss, "MB");
  // No frame is analysed on this path; the frames it brings on line are the
  // catalog's, at one RELOAD each (see README: "ingest_fps on the query
  // workloads").
  result->Set("ingest_fps", static_cast<double>(frames) /
                                (queryable_p50_ms * 1e-3), "frames/s");
  result->Set("queryable_p50_ms", queryable_p50_ms, "ms");
  result->Set("queryable_p90_ms", Percentile(queryable_ms, 0.9), "ms");
  result->Set("query_p50_us", pass.p(kQuery, 0.5), "us");
  result->Set("queryframe_p50_us", pass.p(kQueryFrame, 0.5), "us");
  result->Set("tree_p50_us", pass.p(kTree, 0.5), "us");

  result->context["videos"] = std::to_string(db.video_count());
  result->context["shots"] = std::to_string(shots);
  result->context["frames"] = std::to_string(frames);
  // The set-up's batch ingest of the catalog: recorded, not gated.
  result->context["catalog_ingest_fps"] =
      std::to_string(static_cast<double>(frames) / catalog_seconds);
  result->context["tenants"] = "0";
  result->context["shards"] = routed ? std::to_string(kShards) : "0";
  result->context["clients"] = std::to_string(kClients);
  result->context["event_workers"] = std::to_string(kEventWorkers);
  result->context["connection_workers"] = pass.placement;
  result->context["threads_peak"] = std::to_string(host.threads_peak());
  result->context["host_steal_pct"] =
      std::to_string(host.StealPercent(pass.start_ns, pass.end_ns));
  result->context["peak_rss_reset"] = rss_reset ? "ok" : "failed";
  result->context["store_fs"] = FilesystemType(run_dir);
  // Throughput and the tails, recorded but not gated: on a shared host they
  // follow the hypervisor's steal more than the program.
  result->context["mix_qps"] = std::to_string(mix_qps);
  result->context["query_p90_us"] = std::to_string(pass.p(kQuery, 0.9));
  result->context["queryframe_p90_us"] =
      std::to_string(pass.p(kQueryFrame, 0.9));
  result->context["query_p99_us"] = std::to_string(pass.p(kQuery, 0.99));
  result->context["queryframe_p99_us"] =
      std::to_string(pass.p(kQueryFrame, 0.99));
  result->context["samples"] =
      std::to_string(pass.latency_us[kQuery].size()) + "/" +
      std::to_string(pass.latency_us[kQueryFrame].size()) + "/" +
      std::to_string(pass.latency_us[kTree].size());

  if (options.trace) {
    LayerProbes probes;
    probes.save_ms = Percentile(save_ms, 0.5);
    probes.index_build_ms = Percentile(index_ms, 0.5);
    probes.front = stack->front_metrics().Snapshot();
    for (int k = 0; k < kNumKinds; ++k) {
      probes.client_p50_us[k] = Percentile(traced.latency_us[k], 0.5);
    }
    if (routed) {
      double client_queries =
          static_cast<double>(pass.latency_us[kQuery].size() +
                              traced.latency_us[kQuery].size());
      double client_frames =
          static_cast<double>(pass.latency_us[kQueryFrame].size() +
                              traced.latency_us[kQueryFrame].size());
      probes.backend_calls_per_query =
          static_cast<double>(backend_counts(vdb::serve::Verb::kQuery) -
                              backend_query0) /
          std::max(1.0, client_queries);
      probes.backend_calls_per_queryframe =
          static_cast<double>(backend_counts(vdb::serve::Verb::kQueryFrame) -
                              backend_frame0) /
          std::max(1.0, client_frames);
      double shard_us = 0.0;
      for (int s = 0; s < kShards; ++s) {
        std::vector<vdb::serve::VerbStats> rows =
            stack->router->metrics().ShardSnapshot(s);
        const vdb::serve::VerbStats* row =
            FindVerb(rows, vdb::serve::Verb::kQuery);
        shard_us += row != nullptr ? row->p50_us : 0.0;
      }
      probes.shard_call_query_us = shard_us / kShards;
      probes.degraded = pass.degraded + traced.degraded;
      probes.cluster_threads_peak = host.threads_peak();
    }
    double traced_qps = traced.qps();
    probes.trace_overhead_pct = (mix_qps - traced_qps) / mix_qps * 100.0;
    // Direct layer probes, outside the timed phase, on the snapshot the
    // unsplit catalog serves (the same store every stack was built from).
    std::unique_ptr<vdb::serve::Server> direct;
    std::shared_ptr<const vdb::VideoDatabase> snapshot;
    std::shared_ptr<const vdb::index::FrameIndex> frame_index;
    if (routed) {
      direct = std::make_unique<vdb::serve::Server>();
      if (direct->Start({run_dir + "/store-" +
                         std::to_string(kSetupReps - 1)}).ok()) {
        snapshot = direct->snapshot();
        frame_index = direct->frame_index();
      }
    } else {
      snapshot = stack->server->snapshot();
      frame_index = stack->server->frame_index();
    }
    if (snapshot && frame_index) {
      Tracer::Get().Enable(true);
      ProbeLayers(mix, *snapshot, *frame_index, &probes);
      Tracer::Get().Enable(false);
    }
    if (direct) direct->Stop();
    probes.ops_attempted = result->attempted;
    probes.ops_failed = result->failed;
    EmitLayerMetrics(probes, result);
  }
  std::filesystem::remove_all(run_dir, ec);
  return true;
}

}  // namespace vdbperf
