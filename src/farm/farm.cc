#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "util/parallel.h"
#include "util/string_util.h"

namespace vdb {
namespace farm {

const char* StreamStateName(StreamState state) {
  switch (state) {
    case StreamState::kPending:
      return "pending";
    case StreamState::kRunning:
      return "running";
    case StreamState::kFinished:
      return "finished";
    case StreamState::kShed:
      return "shed";
    case StreamState::kCancelled:
      return "cancelled";
    case StreamState::kFailed:
      return "failed";
  }
  return "unknown";
}

// One admitted tenant: its pipeline, the counters other threads read while
// it runs, and the outcome its runner task leaves behind.
struct StreamFarm::Tenant {
  int index = 0;
  std::string name;
  int weight = 1;
  double target_fps = 0.0;
  int frames_total = 0;
  std::unique_ptr<stream::FrameSource> source;
  std::unique_ptr<stream::Pipeline> pipeline;

  std::atomic<long> frames_done{0};
  std::atomic<int> state{static_cast<int>(StreamState::kPending)};
  std::atomic<bool> shed{false};

  // Lag as of the monitor's last tick; guarded by the farm's mu_.
  double lag_seconds = 0.0;
  bool lagging = false;

  // Written by RunTenant before it retires, read after its thread joins.
  StreamOutcome outcome;
};

StreamFarm::StreamFarm(FarmOptions options) : options_(std::move(options)) {}

StreamFarm::~StreamFarm() = default;

Result<FarmReport> StreamFarm::Run(std::vector<StreamSpec> specs) {
  return Execute(std::move(specs), /*resume=*/false);
}

Result<FarmReport> StreamFarm::Resume(std::vector<StreamSpec> specs) {
  return Execute(std::move(specs), /*resume=*/true);
}

Status StreamFarm::ValidateSpecs(const std::vector<StreamSpec>& specs,
                                 bool resume) {
  if (specs.empty()) {
    return Status::InvalidArgument("no streams offered");
  }
  if (options_.max_streams > 0 &&
      static_cast<int>(specs.size()) > options_.max_streams) {
    // Admission control: all-or-nothing. Nothing was started, so the
    // caller can retry with fewer streams or against a bigger farm.
    return Status::Unavailable(
        StrFormat("admission refused: %d streams offered, max_streams=%d",
                  static_cast<int>(specs.size()), options_.max_streams));
  }
  if (options_.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if ((options_.checkpoint_every_shots > 0 ||
       options_.checkpoint_every_media_seconds > 0) &&
      options_.publish_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint cadence set without publish_dir");
  }
  if (resume && options_.publish_dir.empty()) {
    return Status::InvalidArgument("Resume requires publish_dir");
  }
  std::set<std::string> names;
  for (const StreamSpec& spec : specs) {
    if (spec.source == nullptr) {
      return Status::InvalidArgument("stream spec with null source");
    }
    if (spec.weight < 1) {
      return Status::InvalidArgument(
          StrFormat("stream '%s': weight must be >= 1",
                    spec.source->name().c_str()));
    }
    if (!spec.name.empty() && spec.name != spec.source->name()) {
      // The published entry is keyed by the source's name; a divergent
      // label would silently publish under a different key than reported.
      return Status::InvalidArgument(
          StrFormat("stream name '%s' does not match its source '%s'; "
                    "rename the video before wrapping it",
                    spec.name.c_str(), spec.source->name().c_str()));
    }
    if (!names.insert(spec.source->name()).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate stream name '%s': each tenant owns one "
                    "catalog entry",
                    spec.source->name().c_str()));
    }
  }
  return Status::Ok();
}

Result<FarmReport> StreamFarm::Execute(std::vector<StreamSpec> specs,
                                       bool resume) {
  VDB_RETURN_IF_ERROR(ValidateSpecs(specs, resume));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("farm is already running");
    }
    running_ = true;
    tenants_.clear();
    completion_snapshots_.clear();
  }
  cancel_requested_.store(false);

  const int n = static_cast<int>(specs.size());
  const int workers = options_.signature_workers > 0
                          ? options_.signature_workers
                          : HardwareThreads();

  dispatcher_ = std::make_unique<FairDispatcher>();
  dispatcher_->finished_callback = [this](int) { RecordCompletionSnapshot(); };

  committer_.reset();
  if (!options_.publish_dir.empty()) {
    CommitterOptions copts;
    copts.database = options_.database;
    copts.dir = options_.publish_dir;
    copts.reload_host = options_.reload_host;
    copts.reload_port = options_.reload_port;
    copts.fault_hook = options_.fault_hook;
    committer_ = std::make_unique<Committer>(copts);
    committer_->Init();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < n; ++i) {
      auto tenant = std::make_unique<Tenant>();
      tenant->index = i;
      tenant->source = std::move(specs[i].source);
      tenant->name = tenant->source->name();
      tenant->weight = specs[i].weight;
      tenant->target_fps = specs[i].target_fps;
      tenant->frames_total = tenant->source->frame_count();
      tenant->outcome.name = tenant->name;

      stream::PipelineOptions popts;
      popts.database = options_.database;
      popts.queue_capacity = options_.queue_capacity;
      popts.checkpoint_every_shots = options_.checkpoint_every_shots;
      popts.checkpoint_every_media_seconds =
          options_.checkpoint_every_media_seconds;
      popts.publish_dir = options_.publish_dir;
      popts.dispatcher = dispatcher_->AddTenant(i, tenant->weight);
      if (committer_ != nullptr) {
        Committer* committer = committer_.get();
        popts.publish = [committer](const CatalogEntry& entry) {
          return committer->Publish(entry);
        };
      }
      Tenant* raw = tenant.get();
      popts.progress_callback = [raw](int frames_done) {
        raw->frames_done.store(frames_done, std::memory_order_relaxed);
      };
      if (options_.checkpoint_callback) {
        auto callback = options_.checkpoint_callback;
        const int index = i;
        popts.checkpoint_callback = [callback, index](uint64_t generation,
                                                      int /*shots*/) {
          callback(index, generation);
        };
      }
      tenant->pipeline = std::make_unique<stream::Pipeline>(popts);
      tenants_.push_back(std::move(tenant));
    }
  }

  active_.store(n);
  clock_.Reset();

  // The shared workers, plus one thread per tenant that runs its
  // pipeline's sequencer.
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this] { dispatcher_->RunWorker(); });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& tenant : tenants_) {
      Tenant* raw = tenant.get();
      threads.emplace_back([this, raw, resume] { RunTenant(raw, resume); });
    }
  }

  MonitorLoop();
  dispatcher_->Close();
  for (std::thread& thread : threads) thread.join();

  FarmReport report;
  report.wall_seconds = clock_.ElapsedSeconds();
  if (committer_ != nullptr) {
    CommitterStats stats = committer_->stats();
    report.publishes = stats.publishes;
    report.store_generation = stats.last_generation;
    report.reloads_ok = stats.reloads_ok;
    report.reload_failures = stats.reload_failures;
    report.reloads_coalesced = stats.reloads_coalesced;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.final_metrics = MetricsLocked();
    report.completion_snapshots = completion_snapshots_;
    for (auto& tenant : tenants_) {
      report.streams.push_back(std::move(tenant->outcome));
    }
    running_ = false;
  }
  return report;
}

void StreamFarm::RunTenant(Tenant* tenant, bool resume) {
  tenant->state.store(static_cast<int>(StreamState::kRunning),
                      std::memory_order_relaxed);
  // A farm-wide Cancel that raced ahead of this tenant's launch still
  // wins (the pipeline honours a pre-run cancel).
  if (cancel_requested_.load()) tenant->pipeline->Cancel();

  Result<stream::PipelineResult> result =
      resume ? tenant->pipeline->Resume(tenant->source.get())
             : tenant->pipeline->Run(tenant->source.get());
  if (resume && !result.ok() &&
      result.status().code() == StatusCode::kNotFound) {
    // No checkpoint of this tenant yet (fresh stream, or it never got far
    // enough to publish): admit it as a fresh run.
    result = tenant->pipeline->Run(tenant->source.get());
  }

  StreamState final_state;
  if (result.ok()) {
    tenant->outcome.entry = std::move(result->entry);
    tenant->outcome.report = result->report;
    if (result->report.cancelled) {
      final_state = tenant->shed.load() ? StreamState::kShed
                                        : StreamState::kCancelled;
    } else {
      final_state = StreamState::kFinished;
    }
  } else {
    tenant->outcome.status = result.status();
    final_state = StreamState::kFailed;
  }
  tenant->outcome.state = final_state;
  tenant->state.store(static_cast<int>(final_state),
                      std::memory_order_release);
  active_.fetch_sub(1);
}

void StreamFarm::MonitorLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.monitor_interval_seconds > 0 ? options_.monitor_interval_seconds
                                            : 0.005);
  while (active_.load() > 0) {
    std::this_thread::sleep_for(interval);
    UpdateLagAndShed();
  }
}

void StreamFarm::UpdateLagAndShed() {
  const double elapsed = clock_.ElapsedSeconds();
  Tenant* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& tenant : tenants_) {
      if (tenant->state.load(std::memory_order_relaxed) !=
          static_cast<int>(StreamState::kRunning)) {
        tenant->lagging = false;
        continue;
      }
      if (tenant->target_fps <= 0) continue;
      // Real-time expectation: by now, elapsed * fps frames have arrived
      // (capped at the stream's length); everything not yet finalized is
      // lag.
      const double expected = std::min<double>(
          elapsed * tenant->target_fps, tenant->frames_total);
      const long done = tenant->frames_done.load(std::memory_order_relaxed);
      const double lag_frames = expected - static_cast<double>(done);
      tenant->lag_seconds =
          lag_frames > 0 ? lag_frames / tenant->target_fps : 0.0;
      tenant->lagging = tenant->lag_seconds > 0;
      if (options_.shed_after_seconds > 0 &&
          tenant->lag_seconds > options_.shed_after_seconds &&
          !tenant->shed.load(std::memory_order_relaxed)) {
        // Shed lowest weight first; among equals, the one furthest behind.
        if (victim == nullptr || tenant->weight < victim->weight ||
            (tenant->weight == victim->weight &&
             tenant->lag_seconds > victim->lag_seconds)) {
          victim = tenant.get();
        }
      }
    }
    if (victim != nullptr) victim->shed.store(true);
  }
  if (victim != nullptr) {
    // One shed per tick: freeing a stream's share of the workers may be
    // enough for the rest to catch up. The cancelled pipeline abandons its
    // open shot; its last published checkpoint stays intact, which is what
    // Resume() later picks up.
    victim->pipeline->Cancel();
  }
}

void StreamFarm::RecordCompletionSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<long> snapshot;
  snapshot.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    snapshot.push_back(tenant->frames_done.load(std::memory_order_relaxed));
  }
  completion_snapshots_.push_back(std::move(snapshot));
}

void StreamFarm::Cancel() {
  cancel_requested_.store(true);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& tenant : tenants_) {
    if (tenant->pipeline != nullptr) tenant->pipeline->Cancel();
  }
}

FarmMetrics StreamFarm::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MetricsLocked();
}

FarmMetrics StreamFarm::MetricsLocked() const {
  FarmMetrics metrics;
  metrics.elapsed_seconds = clock_.ElapsedSeconds();
  std::vector<uint64_t> processed;
  if (dispatcher_ != nullptr) processed = dispatcher_->ProcessedCounts();
  for (const auto& tenant : tenants_) {
    StreamMetrics sm;
    sm.name = tenant->name;
    sm.state = static_cast<StreamState>(
        tenant->state.load(std::memory_order_acquire));
    sm.weight = tenant->weight;
    sm.target_fps = tenant->target_fps;
    sm.frames_total = tenant->frames_total;
    sm.frames_done = tenant->frames_done.load(std::memory_order_relaxed);
    if (static_cast<size_t>(tenant->index) < processed.size()) {
      sm.signature_steps = processed[tenant->index];
    }
    sm.lag_seconds = tenant->lag_seconds;
    sm.lagging = tenant->lagging;
    switch (sm.state) {
      case StreamState::kPending:
        break;
      case StreamState::kRunning:
        ++metrics.running;
        break;
      case StreamState::kFinished:
        ++metrics.finished;
        break;
      case StreamState::kShed:
        ++metrics.shed;
        break;
      case StreamState::kCancelled:
        ++metrics.cancelled;
        break;
      case StreamState::kFailed:
        ++metrics.failed;
        break;
    }
    metrics.streams.push_back(std::move(sm));
  }
  if (committer_ != nullptr) {
    CommitterStats stats = committer_->stats();
    metrics.publishes = stats.publishes;
    metrics.store_generation = stats.last_generation;
    metrics.reloads_ok = stats.reloads_ok;
    metrics.reload_failures = stats.reload_failures;
    metrics.reloads_coalesced = stats.reloads_coalesced;
  }
  return metrics;
}

}  // namespace farm
}  // namespace vdb
