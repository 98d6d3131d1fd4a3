#ifndef VDB_CLUSTER_ROUTER_H_
#define VDB_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/metrics.h"
#include "serve/wire.h"
#include "util/result.h"

namespace vdb {
namespace cluster {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  int port = -1;  // < 0 = absent (only meaningful for replicas)
};

// One shard's backends: the primary vdbserve plus an optional read replica
// serving the same shard directory. Reads prefer the primary but hedge to
// the replica when the primary is slow, and fail over to it when the
// primary is down; RELOAD goes to both.
struct ShardBackends {
  ShardEndpoint primary;
  ShardEndpoint replica;
};

struct RouterOptions {
  // The router's own listening front end. offload_threads is raised to at
  // least max(4, 2 x shard count): every fan-out runs on the offload
  // thread that dispatched it, never on an event loop.
  serve::ServerOptions frontend;

  // Per-backend connection options for the pools. max_retries is raised to
  // at least 1 so a pooled connection whose backend restarted reconnects
  // instead of sticking poisoned.
  serve::ClientOptions backend;

  // Hedged reads: if the primary has not answered after this long and the
  // shard has a replica, the same request is also sent to the replica and
  // the first answer wins (a poll() deadline, not a thread). <= 0 disables
  // hedging (replica is failover-only).
  int hedge_after_ms = 50;

  // After a primary's transport fails, or a hedge answers while the
  // primary is still silent, reads go straight to the replica for this
  // long before the primary is probed again.
  int down_cooldown_ms = 1'000;

  // Cap on the distributed QUERY widening loop; matches the single-node
  // index's own widening cap so a sharded query can never take more
  // doubling rounds than one server would.
  int max_widen_rounds = 64;

  // Per-endpoint cap on pooled idle connections.
  int max_pooled_connections = 8;
};

// The scatter-gather front of a sharded catalog cluster. Speaks the same
// wire protocol as vdbserve, on both sides: clients connect to the router
// exactly as they would to a single server, and the router fans out to the
// per-shard vdbserve backends over pooled serve::Clients.
//
// Every fan-out is one send-then-gather loop on the thread dispatching the
// request: send to every shard, then poll() the pending sockets together
// and receive each answer as it arrives. Dials are nonblocking and answers
// are read as far as they have arrived, so one hung backend never holds up
// the others. No thread is started per request, per shard or per hedge.
//
// Verb semantics:
//   QUERY  — distributed top-k. The router drives the widening loop that a
//            single server runs inside its variance index: each round asks
//            every shard for its top-k strictly inside the current
//            (alpha, beta) band (exact_band probes) plus its in-band and
//            eligible counts, and stops exactly when a single node would —
//            when the global in-band count reaches top_k or the global
//            eligible count. The final round's hits are translated to
//            global video ids and merged by (distance, video id, shot),
//            which makes the answer byte-identical to one server holding
//            the merged catalog.
//   QUERYFRAME — one-round scatter-gather: every shard answers its own
//            top-k from its frame index; hits are translated to global
//            video ids and merged by (score, video id, shot), candidates
//            and probed counts summed — byte-identical to one server
//            holding the merged catalog.
//   LIST   — scatter-gather concatenation in shard order, ids translated.
//   STATS  — the router's own metrics, plus aggregated catalog counts and
//            per-shard "shard<K>/<verb>" backend-latency rows.
//   TREE   — routed point-wise to the shard owning the video id.
//   RELOAD — fanned out to every backend (primaries and replicas); shard
//            video-id bases are recomputed afterwards.
//   PING   — answered locally.
//
// Degraded mode: when a shard's primary and replica are both unreachable,
// scatter-gather verbs answer from the surviving shards and report
// shards_ok < shards_total on the response instead of failing; only when
// every shard is unreachable does a verb return an error.
class Router {
 public:
  Router(RouterOptions options, std::vector<ShardBackends> shards);

  // Stops the router if it is still running.
  ~Router() { Stop(); }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Learns every shard's video count (computing global id bases), then
  // binds the listening socket and starts serving. Fails if any shard has
  // neither a reachable primary nor a reachable replica.
  Status Start();

  void Stop() { frontend_.Stop(); }

  // The port actually bound (meaningful after a successful Start).
  int port() const { return frontend_.port(); }

  int shard_count() const { return static_cast<int>(shards_.size()); }

  const serve::ServerMetrics& metrics() const { return frontend_.metrics(); }

  // Request dispatch, exposed for tests: exactly what the front end's
  // offload executor runs for a decoded request frame.
  serve::Response Dispatch(const serve::Request& request);

 private:
  // One pooled backend address with its health marker.
  struct Endpoint {
    ShardEndpoint addr;
    std::mutex mu;
    std::vector<serve::Client> idle;
    // steady-clock ms until which reads skip this endpoint; 0 = healthy.
    std::atomic<int64_t> down_until_ms{0};

    // Present and not cooling down at steady-clock ms `now`.
    bool up(int64_t now) const {
      return addr.port >= 0 &&
             down_until_ms.load(std::memory_order_relaxed) <= now;
    }
  };

  struct Shard {
    Endpoint primary;
    Endpoint replica;  // addr.port < 0 = absent
  };

  // Global video-id layout: shard i's local id v is global id base[i] + v,
  // matching a single server loading the shard stores in order.
  struct ShardSpan {
    int base = 0;
    int count = 0;
  };

  // One target of a fan-out: where the request goes first, and where it
  // goes when that endpoint's transport fails or, with `hedge`, when it has
  // not answered by hedge_after_ms.
  struct Target {
    Endpoint* first = nullptr;
    Endpoint* second = nullptr;  // nullptr = no failover
    bool hedge = false;
    int lane = -1;  // shard latency lane recording the answer; -1 = none
  };

  // One send-then-gather round; Round{*this, request, targets}.Run()[i]
  // is targets[i]'s answer.
  struct Round;

  // The read path for one shard: primary, with the replica as hedge and
  // failover; replica first while the primary cools down.
  Target ReadTarget(int shard);

  // A round over every shard's ReadTarget.
  std::vector<Result<serve::Response>> FanOut(const serve::Request& request);

  // LISTs every shard and recomputes the id spans. `require_all` makes any
  // unreachable shard an error (Start); otherwise unreachable shards keep
  // their previous span.
  Status RefreshSpans(bool require_all);

  std::shared_ptr<const std::vector<ShardSpan>> spans() const;

  serve::Response HandlePing(const serve::Request& request) const;
  serve::Response HandleQuery(const serve::QueryRequest& request);
  serve::Response HandleQueryFrame(const serve::QueryFrameRequest& request);
  serve::Response HandleTree(const serve::TreeRequest& request);
  serve::Response HandleList();
  serve::Response HandleStats();
  serve::Response HandleReload(const std::string& path);

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex spans_mu_;
  std::shared_ptr<const std::vector<ShardSpan>> spans_;

  // Per-shard backend-call latency lanes ("shard<K>/<verb>" STATS rows).
  // A shard's lane is reset when its backends are reloaded — a restarted
  // backend starts a new catalog epoch, and stale outage latencies would
  // pollute the merged percentiles forever.
  serve::ServerMetrics shard_metrics_;

  serve::FrontEnd frontend_;
};

}  // namespace cluster
}  // namespace vdb

#endif  // VDB_CLUSTER_ROUTER_H_
