#include "cluster/router.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <optional>
#include <utility>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vdb {
namespace cluster {
namespace {

using serve::Request;
using serve::Response;
using serve::Verb;

// Mirror of the single server's QUERY bound, so the router rejects exactly
// what a backend would.
constexpr int kMaxTopK = 1 << 16;

serve::ServerOptions RouterFrontendOptions(serve::ServerOptions options,
                                           int shard_count) {
  // Every routed verb blocks its dispatching thread in a fan-out, so
  // dispatch must always run on the offload executor — and wide enough
  // that one slow shard cannot starve unrelated client requests.
  options.offload_threads =
      std::max({options.offload_threads, 2 * shard_count, 4});
  options.shard_id = -1;
  options.shard_count = shard_count;
  return options;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A backend call's outcome: the transport failure, or the backend's own
// status.
Status AnswerStatus(const Result<Response>& result) {
  return result.ok() ? result->status : result.status();
}

// The shared half of every scatter-gather verb: calls merge(i, answer) for
// each shard that answered OK, in shard order. When none did, sets an error
// status "no shard <what>: <first failure>" on `response` and returns false;
// otherwise fills the health fields and returns true.
template <typename Merge>
bool MergeAnswers(const std::vector<Result<Response>>& results,
                  const char* what, Response* response, Merge merge) {
  uint32_t shards_ok = 0;
  Status first_failure;
  for (size_t i = 0; i < results.size(); ++i) {
    Status status = AnswerStatus(results[i]);
    if (!status.ok()) {
      if (first_failure.ok()) {
        first_failure = status;
      }
      continue;
    }
    ++shards_ok;
    merge(i, *results[i]);
  }
  if (shards_ok == 0) {
    response->status = Status(
        first_failure.ok() ? StatusCode::kIoError : first_failure.code(),
        StrFormat("no shard %s: ", what) +
            std::string(first_failure.message()));
    return false;
  }
  response->shards_ok = shards_ok;
  response->shards_total = static_cast<uint32_t>(results.size());
  return true;
}

}  // namespace

// One send-then-gather round: send to (or start dialing) every target's
// first endpoint, then poll() all pending sockets at once, with the hedge
// and each leg's connect or read timeout as deadlines. Target t has two
// legs: legs[2t] on its first endpoint, legs[2t + 1] on its second (only
// on failover or hedge). A target is done at its first answer — the other
// leg's connection is closed, as its answer may still be on the wire — or
// once both legs have failed.
struct Router::Round {
  struct Leg {
    enum State { kIdle, kDialing, kAwaiting, kOver } state = kIdle;
    Endpoint* endpoint = nullptr;
    std::optional<serve::Client> client;  // empty = not connected
    int retries = 0;
    int64_t due_ms = 0;  // kDialing, kAwaiting: the connect or read deadline
  };

  Router& router;
  const Request& request;
  const std::vector<Target>& targets;
  std::vector<Result<Response>> results = std::vector<Result<Response>>(
      targets.size(), Result<Response>(Status::Internal("fan-out pending")));
  std::vector<Leg> legs = std::vector<Leg>(2 * targets.size());
  size_t pending = targets.size();
  Stopwatch timer{};

  std::vector<Result<Response>> Run() {
    for (size_t t = 0; t < targets.size(); ++t) {
      legs[2 * t].endpoint = targets[t].first;
      legs[2 * t + 1].endpoint = targets[t].second;
      Launch(2 * t);
    }
    const int64_t hedge_at = NowMs() + router.options_.hedge_after_ms;
    std::vector<pollfd> fds;  // fds[i] watches legs[i]; poll skips fd -1
    while (pending > 0) {
      fds.assign(legs.size(), pollfd{-1, 0, 0});
      int64_t wake = NowMs() < hedge_at ? hedge_at : INT64_MAX;
      for (size_t i = 0; i < legs.size(); ++i) {
        if (Busy(i)) {
          fds[i].fd = legs[i].client->fd();
          fds[i].events = legs[i].state == Leg::kDialing ? POLLOUT : POLLIN;
          wake = std::min(wake, legs[i].due_ms);
        }
      }
      // A failed poll (EINTR) leaves every revents 0; the deadlines still
      // bound the round.
      ::poll(fds.data(), fds.size(),
             static_cast<int>(std::clamp<int64_t>(wake - NowMs(), 0, INT_MAX)));
      int64_t now = NowMs();
      for (size_t i = 0; i < legs.size(); ++i) {
        // Skip legs an earlier event in this sweep closed or started.
        if (fds[i].fd < 0 || !Busy(i)) {
          continue;
        }
        bool dialing = legs[i].state == Leg::kDialing;
        if (fds[i].revents != 0) {
          dialing ? Send(i) : Receive(i);
        } else if (legs[i].due_ms <= now) {
          dialing ? GiveUp(i, Status::IoError("backend connect timed out"))
                  : Failed(i, Status::IoError("backend read timed out"));
        }
      }
      for (size_t t = 0; now >= hedge_at && t < targets.size(); ++t) {
        if (targets[t].hedge && legs[2 * t + 1].state == Leg::kIdle) {
          Launch(2 * t + 1);
        }
      }
    }
    return std::move(results);
  }

  // Whether leg i is waiting on its socket: for a dial or for an answer.
  bool Busy(size_t i) const {
    return legs[i].state == Leg::kDialing || legs[i].state == Leg::kAwaiting;
  }

  static int64_t Deadline(int timeout_ms) {
    return NowMs() + (timeout_ms > 0 ? timeout_ms : INT_MAX);
  }

  // Starts leg i, on an idle pooled connection if there is one.
  void Launch(size_t i) {
    Endpoint& endpoint = *legs[i].endpoint;
    std::unique_lock<std::mutex> lock(endpoint.mu);
    if (!endpoint.idle.empty()) {
      legs[i].client.emplace(std::move(endpoint.idle.back()));
      endpoint.idle.pop_back();
    }
    lock.unlock();
    Send(i);
  }

  // Sends on leg i's connection, or dials one and comes back here once it
  // polls writable. A failed dial gives up at once: redialing would repeat
  // it.
  void Send(size_t i) {
    Leg& leg = legs[i];
    if (!leg.client) {
      Result<serve::Client> dialed = serve::Client::Dial(
          leg.endpoint->addr.host, leg.endpoint->addr.port,
          router.options_.backend);
      if (!dialed.ok()) {
        GiveUp(i, dialed.status());
        return;
      }
      leg.client.emplace(std::move(*dialed));
      leg.state = Leg::kDialing;
      leg.due_ms = Deadline(router.options_.backend.connect_timeout_ms);
      return;
    }
    if (leg.state == Leg::kDialing) {
      Status connected = leg.client->FinishDial();
      if (!connected.ok()) {
        GiveUp(i, connected);
        return;
      }
    }
    Status sent = leg.client->Send(request);
    if (!sent.ok()) {
      Failed(i, sent);
      return;
    }
    leg.state = Leg::kAwaiting;
    leg.due_ms = Deadline(router.options_.backend.read_timeout_ms);
  }

  // Reads what has arrived of leg i's answer, pooling the connection once
  // it is whole.
  void Receive(size_t i) {
    Leg& leg = legs[i];
    Result<std::optional<Response>> answer =
        leg.client->ReceiveSome(request.verb);
    if (!answer.ok()) {
      Failed(i, answer.status());
      return;
    }
    if (!answer->has_value()) {
      return;
    }
    Endpoint& endpoint = *leg.endpoint;
    endpoint.down_until_ms.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(endpoint.mu);
      if (static_cast<int>(endpoint.idle.size()) <
          router.options_.max_pooled_connections) {
        endpoint.idle.push_back(std::move(*leg.client));
      }
    }
    // A hedge won while the primary is silent: give the primary up too, so
    // a hung one costs a hedge delay per cooldown, not one per read.
    if (i % 2 == 1 && Busy(i - 1)) {
      GiveUp(i - 1, Status::IoError("hedge answered first"));
    }
    Finish(i / 2, std::move(**answer));
  }

  // A transport failure on leg i: the client's reconnect retry first, on a
  // fresh connection; then the leg gives up.
  void Failed(size_t i, const Status& failure) {
    Leg& leg = legs[i];
    leg.client.reset();
    if (serve::RetryableTransportError(failure) &&
        leg.retries++ < router.options_.backend.max_retries) {
      Send(i);
      return;
    }
    GiveUp(i, failure);
  }

  // The endpoint is down: reads skip it for down_cooldown_ms. Fail over to
  // the target's second endpoint; the target fails once neither leg is
  // pending.
  void GiveUp(size_t i, const Status& failure) {
    legs[i].endpoint->down_until_ms.store(
        NowMs() + router.options_.down_cooldown_ms, std::memory_order_relaxed);
    legs[i].client.reset();
    legs[i].state = Leg::kOver;
    size_t t = i / 2;
    if (legs[2 * t + 1].state == Leg::kIdle &&
        legs[2 * t + 1].endpoint != nullptr) {
      Launch(2 * t + 1);
    } else if (!Busy(i ^ 1)) {
      Finish(t, failure);
    }
  }

  void Finish(size_t t, Result<Response> result) {
    if (targets[t].lane >= 0) {
      router.shard_metrics_.OnRequest(request.verb, AnswerStatus(result).ok(),
                                      timer.ElapsedSeconds() * 1e6,
                                      targets[t].lane);
    }
    results[t] = std::move(result);
    for (size_t i : {2 * t, 2 * t + 1}) {
      legs[i].client.reset();
      legs[i].state = Leg::kOver;
    }
    --pending;
  }
};

Router::Router(RouterOptions options, std::vector<ShardBackends> shards)
    : options_(std::move(options)),
      spans_(std::make_shared<std::vector<ShardSpan>>(shards.size())),
      shard_metrics_(std::max<int>(1, static_cast<int>(shards.size()))),
      frontend_(
          RouterFrontendOptions(options_.frontend,
                                static_cast<int>(shards.size())),
          [this](const Request& request) { return Dispatch(request); },
          // PING is answered locally from atomics; everything else blocks
          // on backend sockets and must leave the event loop.
          [](Verb verb) { return verb != Verb::kPing; }) {
  for (ShardBackends& backends : shards) {
    auto shard = std::make_unique<Shard>();
    shard->primary.addr = std::move(backends.primary);
    shard->replica.addr = std::move(backends.replica);
    shards_.push_back(std::move(shard));
  }
  // A pooled connection whose backend restarted must reconnect, not stick
  // poisoned: the whole failover design assumes the client layer retries.
  options_.backend.max_retries = std::max(1, options_.backend.max_retries);
}

Status Router::Start() {
  if (shards_.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  // Learn every shard's video count up front: global id translation is
  // meaningless until the spans exist, so an unreachable shard (primary
  // *and* replica) fails Start instead of starting a router that would
  // mistranslate ids.
  VDB_RETURN_IF_ERROR(RefreshSpans(/*require_all=*/true));
  return frontend_.Start();
}

std::shared_ptr<const std::vector<Router::ShardSpan>> Router::spans() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_;
}

Router::Target Router::ReadTarget(int shard) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  if (s.replica.addr.port < 0) {
    return {&s.primary, nullptr, false, shard};
  }
  if (!s.primary.up(NowMs())) {
    // Primary cooling down after a failure: replica first, primary only
    // as the last resort (it may have just come back).
    return {&s.replica, &s.primary, false, shard};
  }
  return {&s.primary, &s.replica, options_.hedge_after_ms > 0, shard};
}

std::vector<Result<Response>> Router::FanOut(const Request& request) {
  std::vector<Target> targets;
  for (int i = 0; i < shard_count(); ++i) {
    targets.push_back(ReadTarget(i));
  }
  return Round{*this, request, targets}.Run();
}

Status Router::RefreshSpans(bool require_all) {
  Request list;
  list.verb = Verb::kList;
  std::vector<Result<Response>> results = FanOut(list);
  std::shared_ptr<const std::vector<ShardSpan>> old = spans();
  auto next = std::make_shared<std::vector<ShardSpan>>(shards_.size());
  int base = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    int count = 0;
    Status failure = AnswerStatus(results[i]);
    if (failure.ok()) {
      count = static_cast<int>(results[i]->list.videos.size());
    } else if (require_all) {
      return Status(failure.code(),
                    StrFormat("shard %d unreachable: %s",
                              static_cast<int>(i),
                              failure.message().c_str()));
    } else {
      // Unreachable shard: keep its previous span so the surviving
      // shards' global ids stay stable while it is down.
      count = (*old)[i].count;
    }
    (*next)[i].base = base;
    (*next)[i].count = count;
    base += count;
  }
  {
    std::lock_guard<std::mutex> lock(spans_mu_);
    spans_ = std::move(next);
  }
  return Status::Ok();
}

Response Router::Dispatch(const Request& request) {
  switch (request.verb) {
    case Verb::kPing:
      return HandlePing(request);
    case Verb::kStats:
      return HandleStats();
    case Verb::kQuery:
      return HandleQuery(request.query);
    case Verb::kTree:
      return HandleTree(request.tree);
    case Verb::kList:
      return HandleList();
    case Verb::kQueryFrame:
      return HandleQueryFrame(request.query_frame);
    case Verb::kReload:
      return HandleReload(request.reload_path);
    case Verb::kError:
      break;
  }
  return serve::ErrorResponse(
      Verb::kError, Status::InvalidArgument("unsupported request verb"));
}

Response Router::HandlePing(const Request& request) const {
  Response response;
  response.verb = Verb::kPing;
  response.ping_token = request.ping_token;
  int64_t now = NowMs();
  uint32_t ok = 0;
  for (const auto& shard : shards_) {
    ok += shard->primary.up(now) || shard->replica.up(now) ? 1 : 0;
  }
  response.shards_ok = ok;
  response.shards_total = static_cast<uint32_t>(shards_.size());
  return response;
}

Response Router::HandleQuery(const serve::QueryRequest& request) {
  Response response;
  response.verb = Verb::kQuery;
  if (request.top_k < 1 || request.top_k > kMaxTopK) {
    response.status = Status::InvalidArgument(
        StrFormat("top_k %d out of range [1, %d]", request.top_k, kMaxTopK));
    return response;
  }
  if (request.var_ba < 0 || request.var_oa < 0) {
    response.status =
        Status::InvalidArgument("variances must be non-negative");
    return response;
  }

  // The distributed widening loop. A single server widens (alpha, beta) by
  // doubling until its in-band match count reaches top_k or the whole
  // eligible set. Per-shard widening would diverge — each shard would stop
  // at a different band — so the router drives the loop: every round asks
  // all shards for the *same* fixed band, and the per-shard in-band /
  // eligible counts decide globally when to stop. Repeated doubling is
  // bit-exact, so round t's band equals the band a single node would test
  // on attempt t.
  Request probe;
  probe.verb = Verb::kQuery;
  probe.query = request;
  probe.query.exact_band = true;
  int rounds = request.exact_band ? 1 : std::max(1, options_.max_widen_rounds);
  std::vector<Result<Response>> results;
  uint64_t in_band = 0;
  uint64_t eligible = 0;
  for (int round = 0; round < rounds; ++round) {
    results = FanOut(probe);
    in_band = 0;
    eligible = 0;
    for (const Result<Response>& r : results) {
      if (AnswerStatus(r).ok()) {
        in_band += r->query.in_band;
        eligible += r->query.eligible;
      }
    }
    if (in_band >= static_cast<uint64_t>(request.top_k) ||
        in_band >= eligible) {
      break;
    }
    probe.query.alpha *= 2.0;
    probe.query.beta *= 2.0;
  }

  std::shared_ptr<const std::vector<ShardSpan>> layout = spans();
  std::vector<serve::SuggestionWire> merged;
  if (!MergeAnswers(results, "answered the query", &response,
                    [&](size_t i, const Response& r) {
                      for (serve::SuggestionWire global : r.query.suggestions) {
                        global.video_id += (*layout)[i].base;
                        merged.push_back(std::move(global));
                      }
                    })) {
    return response;
  }
  // The single-node tie-break, on global ids: each shard's hits are its k
  // best within the final band, so the global k best are in the union.
  std::sort(merged.begin(), merged.end(),
            [](const serve::SuggestionWire& a,
               const serve::SuggestionWire& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.video_id != b.video_id) return a.video_id < b.video_id;
              return a.shot_index < b.shot_index;
            });
  merged.resize(std::min(merged.size(), static_cast<size_t>(request.top_k)));
  response.query.suggestions = std::move(merged);
  if (request.exact_band) {
    response.query.in_band = in_band;
    response.query.eligible = eligible;
  }
  return response;
}

Response Router::HandleQueryFrame(const serve::QueryFrameRequest& request) {
  Response response;
  response.verb = Verb::kQueryFrame;
  if (request.top_k < 1 || request.top_k > kMaxTopK) {
    response.status = Status::InvalidArgument(
        StrFormat("top_k %d out of range [1, %d]", request.top_k, kMaxTopK));
    return response;
  }
  if (request.has_signature() == request.has_frame()) {
    response.status = Status::InvalidArgument(
        "QUERYFRAME needs exactly one of a signature or a raw frame");
    return response;
  }
  // Frame-index queries need no widening loop: every shard scores its own
  // shots against the full query token set independently, so one fan-out
  // round suffices and the union of per-shard top-k contains the global
  // top-k (a shot's score does not depend on other shards).
  Request probe;
  probe.verb = Verb::kQueryFrame;
  probe.query_frame = request;
  std::vector<Result<Response>> results = FanOut(probe);
  std::shared_ptr<const std::vector<ShardSpan>> layout = spans();
  std::vector<serve::FrameHitWire> merged;
  if (!MergeAnswers(
          results, "answered the frame query", &response,
          [&](size_t i, const Response& r) {
            // query_tokens is a property of the query, identical on every
            // shard; candidates/probed sum because the shards partition the
            // posting lists, reproducing the counts one server with the
            // merged catalog reports.
            response.query_frame.query_tokens = r.query_frame.query_tokens;
            response.query_frame.candidates += r.query_frame.candidates;
            response.query_frame.probed += r.query_frame.probed;
            for (serve::FrameHitWire global : r.query_frame.hits) {
              global.video_id += (*layout)[i].base;
              merged.push_back(std::move(global));
            }
          })) {
    return response;
  }
  // The single-node tie-break on global ids (score desc, video, shot) — a
  // total order, so the merged answer is byte-identical to one server
  // holding the merged catalog.
  std::sort(merged.begin(), merged.end(),
            [](const serve::FrameHitWire& a, const serve::FrameHitWire& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.video_id != b.video_id) return a.video_id < b.video_id;
              return a.shot_index < b.shot_index;
            });
  merged.resize(std::min(merged.size(), static_cast<size_t>(request.top_k)));
  response.query_frame.hits = std::move(merged);
  return response;
}

Response Router::HandleTree(const serve::TreeRequest& request) {
  Response response;
  response.verb = Verb::kTree;
  std::shared_ptr<const std::vector<ShardSpan>> layout = spans();
  int total = 0;
  int shard = -1;
  for (size_t i = 0; i < layout->size(); ++i) {
    const ShardSpan& span = (*layout)[i];
    total += span.count;
    if (request.video_id >= span.base &&
        request.video_id < span.base + span.count) {
      shard = static_cast<int>(i);
    }
  }
  if (shard < 0) {
    // Same shape a single server's catalog lookup reports.
    response.status = Status::NotFound(StrFormat(
        "video id %d (have %d videos)", request.video_id, total));
    return response;
  }
  Request routed;
  routed.verb = Verb::kTree;
  routed.tree = request;
  routed.tree.video_id =
      request.video_id - (*layout)[static_cast<size_t>(shard)].base;
  Result<Response> r = Round{*this, routed, {ReadTarget(shard)}}.Run()[0];
  if (!r.ok()) {
    response.status = r.status();
    return response;
  }
  response = std::move(*r);
  // Node ids are per-video, so the body passes through untranslated; only
  // the health fields are the router's to report.
  response.shards_ok = response.status.ok() ? 1 : 0;
  response.shards_total = static_cast<uint32_t>(shards_.size());
  return response;
}

Response Router::HandleList() {
  Response response;
  response.verb = Verb::kList;
  Request list;
  list.verb = Verb::kList;
  std::vector<Result<Response>> results = FanOut(list);
  std::shared_ptr<const std::vector<ShardSpan>> layout = spans();
  MergeAnswers(results, "answered the list", &response,
               [&](size_t i, const Response& r) {
                 for (serve::VideoSummary global : r.list.videos) {
                   global.video_id += (*layout)[i].base;
                   response.list.videos.push_back(std::move(global));
                 }
               });
  return response;
}

Response Router::HandleStats() {
  Response response;
  response.verb = Verb::kStats;
  Request stats;
  stats.verb = Verb::kStats;
  std::vector<Result<Response>> results = FanOut(stats);
  // The router's own front-end counters are the base; the catalog shape is
  // the sum over the shards that answered.
  response.stats = frontend_.metrics().Snapshot();
  response.stats.shard_id = -1;
  response.stats.shard_count = static_cast<int>(shards_.size());
  uint32_t shards_ok = 0;
  uint64_t min_generation = UINT64_MAX;
  for (const Result<Response>& r : results) {
    if (!AnswerStatus(r).ok()) {
      continue;
    }
    ++shards_ok;
    response.stats.videos += r->stats.videos;
    response.stats.indexed_shots += r->stats.indexed_shots;
    response.stats.reloads_ok += r->stats.reloads_ok;
    response.stats.reload_failures += r->stats.reload_failures;
    // The cluster is only as fresh as its stalest shard.
    min_generation = std::min(min_generation, r->stats.store_generation);
  }
  response.stats.store_generation = shards_ok > 0 ? min_generation : 0;
  // Per-shard backend-call latency lanes, named so vdbload can report
  // per-shard tail latency from one STATS round trip.
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (serve::VerbStats row :
         shard_metrics_.ShardSnapshot(static_cast<int>(i))) {
      row.verb = StrFormat("shard%d/%s", static_cast<int>(i),
                           row.verb.c_str());
      response.stats.verbs.push_back(std::move(row));
    }
  }
  response.shards_ok = shards_ok;
  response.shards_total = static_cast<uint32_t>(shards_.size());
  return response;
}

Response Router::HandleReload(const std::string& path) {
  Response response;
  response.verb = Verb::kReload;
  Request reload;
  reload.verb = Verb::kReload;
  reload.reload_path = path;
  // RELOAD is a write: it goes to every backend at once — each primary
  // *and* each replica re-reads its shard store — with no hedging and no
  // failover (a replica standing in for its primary would hide that the
  // primary still serves the old generation). The shard's answer is its
  // primary's; the replicas' answers are only waited for.
  std::vector<Target> targets(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    targets[i] = {&shards_[i]->primary, nullptr, false, static_cast<int>(i)};
    if (shards_[i]->replica.addr.port >= 0) {
      targets.push_back({&shards_[i]->replica});
    }
  }
  std::vector<Result<Response>> results = Round{*this, reload, targets}.Run();
  results.erase(results.begin() + shard_count(), results.end());
  if (!MergeAnswers(results, "completed the reload", &response,
                    [&](size_t i, const Response& r) {
                      response.reload.videos += r.reload.videos;
                      response.reload.indexed_shots += r.reload.indexed_shots;
                      // A reloaded shard starts a new catalog epoch: wipe
                      // its latency lane so stale pre-reload (or outage)
                      // samples stop polluting percentiles.
                      shard_metrics_.ResetShard(static_cast<int>(i));
                    })) {
    return response;
  }
  // Membership may have changed; recompute the global id layout (shards
  // that are down keep their old span, so there is nothing to report).
  (void)RefreshSpans(/*require_all=*/false);
  return response;
}

}  // namespace cluster
}  // namespace vdb
