// ingest_live: 16 farm tenants stream derived videos into a store that
// already holds a base catalog. Tenants checkpoint every few shots; the
// committer publishes each checkpoint and RELOADs an in-process Server. A
// prober sends QUERYFRAME for every newly published shot until it ranks,
// timing frame-pulled -> queryable, while a browse/search stream reads from
// the same server. The router is bypassed.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <malloc.h>
#include <sys/prctl.h>

#include "common.h"
#include "core/catalog_io.h"
#include "core/extractor.h"
#include "core/geometry.h"
#include "corpus.h"
#include "farm/committer.h"
#include "farm/farm.h"
#include "index/token.h"
#include "layers.h"
#include "mix.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/catalog_store.h"
#include "util/binary_io.h"

namespace vdbperf {

namespace {

constexpr int kTenants = 16;  // the farm's default max_streams
constexpr int kBaseVideos = 256;
constexpr int kBaseFrames = 60;
constexpr int kTenantFrames = 240;  // per tenant per round
constexpr int kCheckpointShots = 8;
// One capacity round takes about this long on a 4-vCPU host; a run has
// --seconds / kRoundSeconds of them, rounded.
constexpr double kRoundSeconds = 7.5;
// The freshness round: one tenant, checkpointing every few shots.
constexpr int kFreshFrames = 1200;
constexpr int kFreshCheckpointShots = 3;
// Open-loop reads per second on one connection in the capacity rounds. A
// read takes 0.2-0.7 ms, so the connection is under a fifth busy and a read
// is rarely queued behind the one before it, while a 10 ms stall still
// delays the two or three reads due inside it.
constexpr double kReadRate = 250.0;
constexpr int kEventWorkers = 2;
// Distinct requests in the read mix. A read p50 is a median over the mix's
// requests, and with 1,024 the seed alone (which videos the ~100 TREEs
// browse) moved the TREE p50 by a fifth.
constexpr int kMixLength = 4096;
constexpr int kOracleChunk = 4;
constexpr size_t kMinProbeTokens = 8;
// How deep a probe looks. Derived videos reuse the clips' shots under
// different colour maps, and a dark or low-contrast frame quantizes to the
// same tokens under many of them, so a few dozen shots can tie with the
// probed one at a perfect score (ties rank by video id).
constexpr int kProbeTopK = 64;

// The serialized catalog entry (the store's own segment payload codec).
std::string EntryBytes(const vdb::CatalogEntry& entry) {
  vdb::BinaryWriter writer;
  vdb::SerializeCatalogEntry(entry, &writer);
  return writer.TakeBuffer();
}

// The freshness prober. Checkpoint callbacks wake it; it looks up each
// tenant's published shots in the served snapshot and sends QUERYFRAME with
// a frame of every new one until the answer ranks that (video, shot). That
// answer makes every frame of the shot queryable, so each frame is one
// sample: pulled -> ranked.
class Prober {
 public:
  // One published shot to find: the probe image is `frame` of the tenant's
  // video, sent as its signature (the QUERYFRAME signature form).
  struct Target {
    int shot = -1;
    int first_frame = 0;  // the shot's frames, inclusive
    int last_frame = 0;
    int frame = -1;
    std::string signature_rgb;
  };
  struct Tenant {
    const DerivedSpec* spec = nullptr;
    PullLog* log = nullptr;
    int shots_seen = 0;  // shots discovered in a served snapshot
    std::vector<Target> pending;
  };

  Prober(const std::vector<BaseClip>* clips, vdb::serve::Server* server,
         RunResult* result)
      : clips_(clips), server_(server), result_(result) {}

  // Starts probing one round's tenants.
  void BeginRound(std::vector<Tenant> tenants) {
    std::lock_guard<std::mutex> lock(mu_);
    tenants_ = std::move(tenants);
    active_ = true;
    round_done_ = false;
    final_pass_done_ = false;
  }
  void Notify() {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    cv_.notify_all();
  }
  // Marks the round finished and waits for the final pass, which counts
  // every shot still unranked as a failed op.
  void EndRound() {
    std::unique_lock<std::mutex> lock(mu_);
    round_done_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return final_pass_done_; });
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

  // The prober thread's body; `sample` runs on every wake-up (fairness).
  void Run(vdb::serve::Client* client, const std::function<void()>& sample) {
    uint64_t seen_events = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(20), [&] {
        return stop_ || events_ != seen_events ||
               (round_done_ && !final_pass_done_);
      });
      if (stop_) break;
      seen_events = events_;
      if (!active_) continue;
      bool final_pass = round_done_ && !final_pass_done_;
      lock.unlock();
      sample();
      Pass(client, final_pass);
      lock.lock();
      if (final_pass) {
        active_ = false;
        final_pass_done_ = true;
        cv_.notify_all();
      }
    }
  }

  std::vector<double> queryable_ms() const {
    std::lock_guard<std::mutex> lock(result_mu_);
    return queryable_ms_;
  }
  long probes() const {
    std::lock_guard<std::mutex> lock(result_mu_);
    return probes_;
  }
  long unprobeable() const { return unprobeable_; }

 private:
  // One sweep over every tenant of the round. Only the prober thread
  // touches tenants_ while a round is active; BeginRound waits for the
  // final pass that ends the previous one.
  void Pass(vdb::serve::Client* client, bool final_pass) {
    Tracer::Scope pass_span("probe.pass");
    std::shared_ptr<const vdb::VideoDatabase> db = server_->snapshot();
    const vdb::index::TokenizerOptions tokenizer =
        server_->frame_index()->options().tokenizer;
    std::map<std::string, const vdb::CatalogEntry*> by_name;
    for (int id = 0; id < db->video_count(); ++id) {
      const vdb::CatalogEntry* entry = db->GetEntry(id).value();
      if (entry->name.compare(0, 2, "t-") == 0) by_name[entry->name] = entry;
    }
    for (Tenant& tenant : tenants_) {
      auto it = by_name.find(tenant.spec->name);
      if (it != by_name.end()) {
        const auto& shots = it->second->shots;
        for (int s = tenant.shots_seen; s < static_cast<int>(shots.size());
             ++s) {
          Target target = ProbeTarget(*tenant.spec,
                                      shots[static_cast<size_t>(s)], tokenizer);
          if (target.frame < 0) {
            ++unprobeable_;
            continue;
          }
          target.shot = s;
          target.first_frame = shots[static_cast<size_t>(s)].start_frame;
          target.last_frame = shots[static_cast<size_t>(s)].end_frame;
          tenant.pending.push_back(std::move(target));
        }
        tenant.shots_seen = std::max(tenant.shots_seen,
                                     static_cast<int>(shots.size()));
      }
      std::vector<Target> missed;
      for (Target& target : tenant.pending) {
        if (!Probe(client, tenant, target, pass_span.id())) {
          missed.push_back(std::move(target));
        }
      }
      tenant.pending = std::move(missed);
      if (final_pass) {
        for (const Target& target : tenant.pending) {
          result_->Fail("never queryable: " + tenant.spec->name + " shot " +
                        std::to_string(target.shot) + " (frame " +
                        std::to_string(target.frame) + ")");
        }
        tenant.pending.clear();
      }
    }
  }

  // The probe image of a published shot: among the frames the index
  // tokenizes (first, every frame_stride-th, last), the one with the most
  // distinct tokens. A near-flat frame (a fade, a blank card) matches
  // every similar shot equally, so ranking its own shot in a top-k would
  // be a coin toss on ids; shots with no frame of at least
  // kMinProbeTokens distinct tokens are counted as unprobeable instead.
  Target ProbeTarget(const DerivedSpec& spec, const vdb::Shot& shot,
                     const vdb::index::TokenizerOptions& tokenizer) const {
    Target best;
    size_t best_tokens = 0;
    auto consider = [&](int frame) {
      vdb::Frame pixels = DeriveFrame(*clips_, spec, frame);
      auto geometry = vdb::ComputeAreaGeometry(pixels.width(), pixels.height());
      if (!geometry.ok()) return;
      auto signature = vdb::ComputeFrameSignature(pixels, *geometry);
      if (!signature.ok()) return;
      size_t tokens =
          vdb::index::SignatureTokenSet(signature->signature_ba, tokenizer)
              .size();
      if (tokens > best_tokens) {
        best.frame = frame;
        best.signature_rgb.clear();
        for (const vdb::PixelRGB& p : signature->signature_ba) {
          best.signature_rgb += static_cast<char>(p.r);
          best.signature_rgb += static_cast<char>(p.g);
          best.signature_rgb += static_cast<char>(p.b);
        }
        best_tokens = tokens;
      }
    };
    for (int f = shot.start_frame; f < shot.end_frame;
         f += tokenizer.frame_stride) {
      consider(f);
    }
    consider(shot.end_frame);
    if (best_tokens < kMinProbeTokens) best.frame = -1;
    return best;
  }

  // True once QUERYFRAME ranks (tenant video, shot) in its top-k.
  bool Probe(vdb::serve::Client* client, const Tenant& tenant,
             const Target& target, uint64_t pass_id) {
    vdb::serve::Request request;
    request.verb = vdb::serve::Verb::kQueryFrame;
    request.query_frame.top_k = kProbeTopK;
    request.query_frame.signature_rgb = target.signature_rgb;
    vdb::Result<vdb::serve::Response> got = [&] {
      Tracer::Scope span("probe.queryframe", pass_id, pass_id);
      return client->Call(request);
    }();
    int64_t end = NowNs();
    bool ranked = false;
    if (got.ok() && got->status.ok()) {
      for (const auto& hit : got->query_frame.hits) {
        ranked |= hit.video_name == tenant.spec->name &&
                  hit.shot_index == target.shot;
      }
    }
    std::lock_guard<std::mutex> lock(result_mu_);
    ++probes_;
    for (int f = target.first_frame; ranked && f <= target.last_frame; ++f) {
      int64_t pulled = tenant.log->pulled_ns[static_cast<size_t>(f)].load(
          std::memory_order_acquire);
      queryable_ms_.push_back(static_cast<double>(end - pulled) * 1e-6);
    }
    return ranked;
  }

  const std::vector<BaseClip>* clips_;
  vdb::serve::Server* server_;
  RunResult* result_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Tenant> tenants_;
  uint64_t events_ = 0;
  bool active_ = false;  // a round's tenants are being probed
  bool round_done_ = false;
  bool final_pass_done_ = true;
  bool stop_ = false;

  mutable std::mutex result_mu_;  // guards the samples below
  std::vector<double> queryable_ms_;
  long probes_ = 0;
  long unprobeable_ = 0;  // prober thread only; read after it joins
};

// What one ReadLoop saw.
struct ReadStats {
  std::vector<Sample> latency_us[kNumKinds];  // due -> answered
  std::vector<Sample> late_us;                 // due -> sent (open loop)
  long ops = 0;

  double p(int kind, double q) const {
    return Percentile(Values(latency_us[kind]), q);
  }
};

// Reads beside the ingest, one request at a time on one connection, until
// `stop`. With rate > 0 the loop is open: request i is due at
// start + i / rate and is timed from when it was due, so a stall is charged
// to every request behind it. With rate 0 it is closed: each request is sent
// as soon as the one before it is answered and timed from when it was sent.
void ReadLoop(vdb::serve::Client* client, const std::vector<MixRequest>& mix,
              const std::vector<vdb::serve::Response>& base_answers,
              double rate, long corrupt_answer, const std::atomic<bool>& stop,
              RunResult* result, ReadStats* stats) {
  // A sleeping thread wakes up to its timer slack (50 us by default) late,
  // which the due-time clock would charge to the server.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  int64_t start = NowNs();
  for (long i = 0; !stop.load(); ++i) {
    int64_t due = NowNs();
    if (rate > 0) {
      due = start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
    }
    const MixRequest& m = mix[static_cast<size_t>(i) % mix.size()];
    const vdb::serve::Response& base =
        base_answers[static_cast<size_t>(i) % mix.size()];
    int64_t sent = NowNs();
    vdb::Result<vdb::serve::Response> got = [&] {
      Tracer::Scope span(KindSpanName(m.kind));
      return client->Call(m.request);
    }();
    int64_t done = NowNs();
    ++stats->ops;
    if (rate > 0) {
      stats->late_us.push_back({done, static_cast<double>(sent - due) * 1e-3});
    }
    // The catalog only grows (tenant names sort after the base videos, so
    // base ids are stable): a TREE answer is exactly the base answer, and
    // a search can only find matches at least as good as the base
    // catalog's best.
    if (got.ok() && stats->ops == corrupt_answer) CorruptAnswer(&*got);
    bool ok = got.ok() && got->status.ok();
    if (ok && m.kind == kTree) {
      ok = AnswerBytes(*got) == AnswerBytes(base);
    } else if (ok && m.kind == kQuery) {
      const auto& want = base.query.suggestions;
      const auto& have = got->query.suggestions;
      ok = !have.empty() && !want.empty() &&
           have.front().distance <= want.front().distance;
    } else if (ok && m.kind == kQueryFrame) {
      const auto& want = base.query_frame.hits;
      const auto& have = got->query_frame.hits;
      ok = !have.empty() && !want.empty() &&
           have.front().score >= want.front().score;
    }
    if (!ok) {
      result->Fail(std::string("wrong ") + KindName(m.kind) + " read " +
                   std::to_string(stats->ops));
      if (!got.ok()) return;
      continue;
    }
    stats->latency_us[m.kind].push_back(
        {done, static_cast<double>(done - due) * 1e-3});
  }
}

}  // namespace

bool RunIngestLive(const RunOptions& options, RunResult* result) {
  // Generator threads: the reader and the prober, one connection each.
  RequireThreadBudget(options.workload.c_str(), 2, 2);
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
  std::mt19937_64 rng(options.seed);
  int base_videos = std::max(16, static_cast<int>(kBaseVideos * options.scale));
  int tenant_frames =
      std::max(120, static_cast<int>(kTenantFrames * options.scale));
  std::vector<DerivedSpec> base_specs;
  for (int v = 0; v < base_videos; ++v) {
    char name[32];
    std::snprintf(name, sizeof(name), "b-%05d", v);
    base_specs.push_back(MakeDerived(*clips, name, kBaseFrames, &rng));
  }
  vdb::VideoDatabase base_db;
  auto base_fps = IngestSpecs(*clips, base_specs, 32, &base_db);
  if (!base_fps.ok()) {
    std::cerr << "base catalog: " << base_fps.status() << "\n";
    return false;
  }
  std::vector<MixRequest> mix =
      MakeMix(*clips, base_specs, base_db, base_videos, kMixLength, &rng);

  // Set-up, several times: publish the base catalog and start the server.
  std::vector<double> setup_s, save_ms, index_ms;
  std::unique_ptr<vdb::serve::Server> server;
  std::string store;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->Stop();
    store = run_dir + "/store-" + std::to_string(rep);
    int64_t start = NowNs();
    auto published = PublishStore(base_db, store);
    if (!published.ok()) {
      std::cerr << "publish: " << published.status() << "\n";
      return false;
    }
    vdb::serve::ServerOptions server_options;
    server_options.event_workers = kEventWorkers;
    server = std::make_unique<vdb::serve::Server>(server_options);
    vdb::Status started = server->Start({store});
    if (!started.ok()) {
      std::cerr << "server: " << started << "\n";
      return false;
    }
    setup_s.push_back(SecondsSince(start));
    save_ms.push_back(published->save_ms);
    index_ms.push_back(published->index_ms);
  }
  std::vector<vdb::serve::Response> base_answers;
  {
    auto snapshot = server->snapshot();
    auto frame_index = server->frame_index();
    for (const MixRequest& m : mix) {
      base_answers.push_back(DirectAnswer(*snapshot, *frame_index, m.request));
    }
  }

  // The timed phase.
  malloc_trim(0);
  bool rss_reset = ResetPeakRss();
  Prober prober(&*clips, server.get(), result);
  std::atomic<vdb::farm::StreamFarm*> live_farm{nullptr};
  std::vector<double> fairness;
  auto sample_fairness = [&] {
    vdb::farm::StreamFarm* farm = live_farm.load();
    if (farm == nullptr) return;
    vdb::farm::FarmMetrics metrics = farm->Metrics();
    long lo = -1, hi = 0;
    int running = 0;
    for (const auto& s : metrics.streams) {
      if (s.state != vdb::farm::StreamState::kRunning) continue;
      ++running;
      lo = lo < 0 ? s.frames_done : std::min(lo, s.frames_done);
      hi = std::max(hi, s.frames_done);
    }
    // Mid-run only: every tenant running and past its first tenth.
    if (running == kTenants && lo > tenant_frames / 10 && hi > 0) {
      fairness.push_back(static_cast<double>(lo) / static_cast<double>(hi));
    }
  };
  std::string placement;
  auto connected =
      ConnectInTurn(server->port(), server->metrics(), 2, &placement);
  if (!connected.ok()) {
    std::cerr << "connect: " << connected.status() << "\n";
    return false;
  }
  vdb::serve::Client* prober_client = &(*connected)[0];
  vdb::serve::Client* reader_client = &(*connected)[1];
  std::thread prober_thread(
      [&] { prober.Run(prober_client, sample_fairness); });
  // Runs `body` with a ReadLoop beside it and returns what the loop saw.
  auto with_reads = [&](double rate, long corrupt_answer,
                        const std::function<void()>& body) {
    std::atomic<bool> stop{false};
    ReadStats stats;
    std::thread reader([&] {
      ReadLoop(reader_client, mix, base_answers, rate, corrupt_answer, stop,
               result, &stats);
    });
    body();
    stop.store(true);
    reader.join();
    return stats;
  };

  std::vector<std::unique_ptr<DerivedSpec>> tenant_specs;
  std::vector<std::unique_ptr<PullLog>> logs;
  LayerProbes probes;
  struct Round {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    long frames = 0;
    // The round's freshness samples: [begin, end) of prober.queryable_ms().
    size_t queryable_begin = 0;
    size_t queryable_end = 0;
  };
  std::vector<Round> untraced_rounds, traced_rounds;
  int rounds = 0;
  bool farm_ok = true;
  // One farm run of `tenants` fresh derived videos of `frames` frames each.
  auto run_round = [&](int tenants, int frames,
                       int checkpoint_shots) -> std::optional<Round> {
    std::vector<vdb::farm::StreamSpec> specs;
    std::vector<Prober::Tenant> probe_tenants;
    for (int t = 0; t < tenants; ++t) {
      char name[32];
      std::snprintf(name, sizeof(name), "t-%03d-%02d", rounds, t);
      tenant_specs.push_back(std::make_unique<DerivedSpec>(
          MakeDerived(*clips, name, frames, &rng)));
      logs.push_back(std::make_unique<PullLog>(frames));
      vdb::farm::StreamSpec spec;
      spec.name = name;
      spec.source = MakeDerivedSource(&*clips, tenant_specs.back().get(),
                                      logs.back().get());
      specs.push_back(std::move(spec));
      Prober::Tenant tenant;
      tenant.spec = tenant_specs.back().get();
      tenant.log = logs.back().get();
      probe_tenants.push_back(std::move(tenant));
    }
    prober.BeginRound(std::move(probe_tenants));
    vdb::farm::FarmOptions farm_options;
    farm_options.max_streams = kTenants;
    farm_options.checkpoint_every_shots = checkpoint_shots;
    farm_options.publish_dir = store;
    farm_options.reload_host = "127.0.0.1";
    farm_options.reload_port = server->port();
    farm_options.checkpoint_callback = [&prober](int, uint64_t) {
      Tracer::Scope span("farm.checkpoint");
      prober.Notify();
    };
    vdb::farm::StreamFarm farm(farm_options);
    live_farm.store(&farm);
    Round round;
    round.queryable_begin = prober.queryable_ms().size();
    round.start_ns = NowNs();
    auto report = farm.Run(std::move(specs));
    round.end_ns = NowNs();
    live_farm.store(nullptr);
    prober.EndRound();
    round.queryable_end = prober.queryable_ms().size();
    ++rounds;
    if (!report.ok()) {
      result->Fail("farm run: " + report.status().ToString());
      farm_ok = false;
      return std::nullopt;
    }
    for (const auto& stream : report->streams) {
      if (stream.state != vdb::farm::StreamState::kFinished) {
        result->Fail("tenant " + stream.name + " did not finish: " +
                     stream.status.ToString());
      }
      round.frames += stream.report.frames;
      for (const auto& stage : stream.report.stages) {
        if (stage.name == "decode") probes.decode_busy_s += stage.busy_seconds;
        if (stage.name == "signature") {
          probes.signature_busy_s += stage.busy_seconds;
        }
        if (stage.name == "sbd") probes.sbd_busy_s += stage.busy_seconds;
        if (stage.name == "finalize") {
          probes.finalize_busy_s += stage.busy_seconds;
        }
      }
      probes.frames_in_flight_max = std::max(
          probes.frames_in_flight_max, stream.report.max_frames_in_flight);
    }
    for (const auto& s : report->final_metrics.streams) {
      probes.signature_steps += static_cast<double>(s.signature_steps);
    }
    probes.publishes += static_cast<double>(report->publishes);
    probes.reloads_ok += report->reloads_ok;
    probes.reloads_coalesced += report->reloads_coalesced;
    return round;
  };

  // The freshness round comes first: one tenant goes live alone on the
  // base catalog, so every checkpoint is published and RELOADed as it comes
  // and every run publishes against a catalog of the same size. (Under the
  // capacity rounds' load most reloads coalesce, and when a frame becomes
  // queryable depends on when the committer's queue happens to drain,
  // which no two runs repeat.) The reads beside it are the gated ones, as
  // a closed loop: neither the reader nor the server sleeps long between
  // reads, so no read pays for waking an idle core, a cost that followed
  // the host, not the program.
  int64_t phase_start = NowNs();
  Tracer::Get().Enable(options.trace);
  std::optional<Round> fresh;
  ReadStats reads = with_reads(0.0, options.corrupt_answer, [&] {
    fresh = run_round(
        1, std::max(120, static_cast<int>(kFreshFrames * options.scale)),
        kFreshCheckpointShots);
  });
  // Capacity rounds: every tenant on air at once, as fast as the farm and
  // the publish chain allow, beside open-loop reads at kReadRate. A fixed
  // number of rounds, sized from --seconds, so every run does the same
  // work. Traced runs alternate untraced/traced rounds.
  int capacity_rounds = std::max(
      options.trace ? 2 : 1,
      static_cast<int>(std::lround(options.seconds / kRoundSeconds)));
  int64_t capacity_start = NowNs();
  ReadStats capacity_reads = with_reads(kReadRate, 0, [&] {
    for (int r = 0; farm_ok && r < capacity_rounds; ++r) {
      bool traced = options.trace && r % 2 == 1;
      Tracer::Get().Enable(traced);
      std::optional<Round> round =
          run_round(kTenants, tenant_frames, kCheckpointShots);
      if (round) (traced ? traced_rounds : untraced_rounds).push_back(*round);
    }
  });
  int64_t phase_end = NowNs();
  Tracer::Get().Enable(false);
  prober.Stop();
  prober_thread.join();
  double peak_rss = PeakRssMb();

  // The ingest oracle, outside the timed phase: the final store must hold
  // exactly what batch ingest of the same sources produces.
  long tenant_total_frames = 0;
  if (farm_ok) {
    std::vector<DerivedSpec> all;
    for (const auto& spec : tenant_specs) {
      all.push_back(*spec);
      tenant_total_frames += spec->frames;
    }
    vdb::VideoDatabase oracle;
    auto oracle_ingest = IngestSpecs(*clips, all, kOracleChunk, &oracle);
    std::map<std::string, std::string> want;
    for (const vdb::VideoDatabase* db : {&base_db, &oracle}) {
      for (int id = 0; id < db->video_count(); ++id) {
        const vdb::CatalogEntry* entry = db->GetEntry(id).value();
        want[entry->name] = EntryBytes(*entry);
      }
    }
    auto final_db = vdb::store::CatalogStore(store).Open();
    if (!oracle_ingest.ok() || !final_db.ok()) {
      result->Fail("oracle or final store unreadable");
    } else {
      result->attempted += static_cast<long>(want.size());
      if ((*final_db)->video_count() != static_cast<int>(want.size())) {
        result->Fail("final store holds " +
                     std::to_string((*final_db)->video_count()) +
                     " videos, batch ingest " + std::to_string(want.size()));
      }
      for (int id = 0; id < (*final_db)->video_count(); ++id) {
        const vdb::CatalogEntry* entry = (*final_db)->GetEntry(id).value();
        auto it = want.find(entry->name);
        if (it == want.end() || it->second != EntryBytes(*entry)) {
          result->Fail("store entry " + entry->name +
                       " differs from batch ingest");
        }
      }
    }
  }

  // Ingest rate over every untraced capacity round; freshness from the
  // freshness round.
  std::vector<double> all_queryable = prober.queryable_ms();
  std::vector<double> queryable;
  if (fresh) {
    queryable.assign(all_queryable.begin() +
                         static_cast<std::ptrdiff_t>(fresh->queryable_begin),
                     all_queryable.begin() +
                         static_cast<std::ptrdiff_t>(fresh->queryable_end));
  }
  auto rounds_fps = [](const std::vector<Round>& of) {
    double frames = 0.0;
    double seconds = 0.0;
    for (const Round& round : of) {
      frames += static_cast<double>(round.frames);
      seconds += static_cast<double>(round.end_ns - round.start_ns) * 1e-9;
    }
    return seconds > 0 ? frames / seconds : 0.0;
  };
  result->attempted += reads.ops + capacity_reads.ops + prober.probes();
  double untraced_fps = rounds_fps(untraced_rounds);
  result->Set("setup_s", Percentile(setup_s, 0.5), "s");
  result->Set("peak_rss_mb", peak_rss, "MB");
  result->Set("ingest_fps", untraced_fps, "frames/s");
  result->Set("queryable_p50_ms", Percentile(queryable, 0.5), "ms");
  result->Set("queryable_p90_ms", Percentile(queryable, 0.9), "ms");
  result->Set("query_p50_us", reads.p(kQuery, 0.5), "us");
  result->Set("queryframe_p50_us", reads.p(kQueryFrame, 0.5), "us");
  result->Set("tree_p50_us", reads.p(kTree, 0.5), "us");

  result->context["videos"] =
      std::to_string(base_videos + static_cast<int>(tenant_specs.size()));
  result->context["base_videos"] = std::to_string(base_videos);
  result->context["frames"] = std::to_string(
      long{base_videos} * kBaseFrames + tenant_total_frames);
  result->context["tenants"] = std::to_string(kTenants);
  result->context["rounds"] = std::to_string(rounds);
  result->context["capacity_s"] =
      std::to_string(static_cast<double>(phase_end - capacity_start) * 1e-9);
  result->context["tenant_frames_per_round"] = std::to_string(tenant_frames);
  result->context["checkpoint_every_shots"] = std::to_string(kCheckpointShots);
  result->context["fresh_round_s"] = std::to_string(
      fresh ? static_cast<double>(fresh->end_ns - fresh->start_ns) * 1e-9
            : 0.0);
  // The open loop's offered and completed read rates: equal unless the
  // server fell behind, so not a throughput figure.
  result->context["read_rate_offered"] = std::to_string(kReadRate);
  result->context["read_rate_completed"] = std::to_string(
      static_cast<double>(capacity_reads.ops) /
      (static_cast<double>(phase_end - capacity_start) * 1e-9));
  result->context["shards"] = "0";
  result->context["clients"] = "2";
  result->context["connection_workers"] = placement;
  result->context["threads_peak"] = std::to_string(host.threads_peak());
  result->context["host_steal_pct"] =
      std::to_string(host.StealPercent(phase_start, phase_end));
  result->context["fresh_steal_pct"] = std::to_string(
      fresh ? host.StealPercent(fresh->start_ns, fresh->end_ns) : 0.0);
  result->context["peak_rss_reset"] = rss_reset ? "ok" : "failed";
  result->context["store_fs"] = FilesystemType(run_dir);
  // The tails, recorded but not gated: they follow the hypervisor's steal
  // more than the program.
  result->context["fresh_reads"] = std::to_string(reads.ops);
  result->context["query_p90_us"] = std::to_string(reads.p(kQuery, 0.9));
  result->context["queryframe_p90_us"] =
      std::to_string(reads.p(kQueryFrame, 0.9));
  result->context["query_p99_us"] = std::to_string(reads.p(kQuery, 0.99));
  result->context["queryframe_p99_us"] =
      std::to_string(reads.p(kQueryFrame, 0.99));
  std::vector<double> late_us = Values(capacity_reads.late_us);
  result->context["read_late_p50_us"] =
      std::to_string(Percentile(late_us, 0.5));
  result->context["read_late_p90_us"] =
      std::to_string(Percentile(late_us, 0.9));
  result->context["capacity_query_p90_us"] =
      std::to_string(capacity_reads.p(kQuery, 0.9));
  result->context["queryable_samples"] = std::to_string(queryable.size());
  result->context["unprobeable_shots"] = std::to_string(prober.unprobeable());
  result->context["ingest_x_realtime"] = std::to_string(
      untraced_fps / (tenant_specs.empty() ? 3.0 : tenant_specs[0]->fps));

  if (options.trace) {
    probes.farm_threads_peak = host.threads_peak();
    probes.fairness_min_max = Percentile(fairness, 0.5);
    probes.save_ms = Percentile(save_ms, 0.5);
    probes.index_build_ms = Percentile(index_ms, 0.5);
    probes.front = server->metrics().Snapshot();
    const vdb::serve::VerbStats* reload =
        FindVerb(probes.front.verbs, vdb::serve::Verb::kReload);
    probes.reload_ms = reload != nullptr ? reload->p50_us * 1e-3 : 0.0;
    for (int k = 0; k < kNumKinds; ++k) {
      // The closed loop's reads are timed from when they were sent, as the
      // server's own figures are.
      probes.client_p50_us[k] = reads.p(k, 0.5);
    }
    probes.late_p99_ms = Percentile(late_us, 0.99) * 1e-3;
    double traced_fps = rounds_fps(traced_rounds);
    probes.trace_overhead_pct =
        untraced_fps > 0 ? (untraced_fps - traced_fps) / untraced_fps * 100.0
                         : 0.0;
    Tracer::Get().Enable(true);
    ProbeLayers(mix, *server->snapshot(), *server->frame_index(), &probes);

    // One committer publish of one changed entry against a copy of the
    // final store: the O(catalog) cost every checkpoint pays.
    std::string copy = run_dir + "/publish-probe";
    std::filesystem::copy(store, copy, ec);
    if (!ec && !tenant_specs.empty()) {
      vdb::farm::CommitterOptions committer_options;
      committer_options.dir = copy;
      vdb::farm::Committer committer(committer_options);
      committer.Init();
      auto final_db = vdb::store::CatalogStore(copy).Open();
      if (final_db.ok()) {
        vdb::CatalogEntry entry =
            *(*final_db)->GetEntry((*final_db)->video_count() - 1).value();
        std::vector<double> publish_ms;
        for (int rep = 0; rep < kSetupReps; ++rep) {
          entry.classification.form_id = rep;
          Tracer::Scope span("probe.committer.publish");
          int64_t start = NowNs();
          bool published = committer.Publish(entry).ok();
          if (published) publish_ms.push_back(SecondsSince(start) * 1e3);
        }
        probes.publish_ms = Percentile(publish_ms, 0.5);
      }
    }
    Tracer::Get().Enable(false);
    probes.ops_attempted = result->attempted;
    probes.ops_failed = result->failed;
    EmitLayerMetrics(probes, result);
  }
  server->Stop();
  std::filesystem::remove_all(run_dir, ec);
  return true;
}

}  // namespace vdbperf
