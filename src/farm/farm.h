#ifndef VDB_FARM_FARM_H_
#define VDB_FARM_FARM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/video_database.h"
#include "farm/committer.h"
#include "farm/dispatcher.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "util/fs.h"
#include "util/result.h"
#include "util/stopwatch.h"

namespace vdb {
namespace farm {

// One tenant offered to the farm.
struct StreamSpec {
  // Catalog name of the tenant; empty uses source->name(). Must be unique
  // within the farm (each tenant owns one catalog entry).
  std::string name;

  std::unique_ptr<stream::FrameSource> source;

  // Fair-share weight (>= 1): a weight-3 tenant gets ~3x the decode and
  // signature service of a weight-1 tenant when both are backlogged.
  // Doubles as shed priority — past the deadline, the lowest weight is
  // shed first.
  int weight = 1;

  // Real-time target of this stream; frames arriving at target_fps should
  // be analysed as fast as they arrive. 0 = no deadline (lag never
  // measured, never shed).
  double target_fps = 0.0;
};

struct FarmOptions {
  // Analysis knobs shared by every tenant (one store = one configuration).
  VideoDatabaseOptions database;

  // Admission cap: offering more streams than this is refused up front
  // with kUnavailable (nothing is partially admitted). <= 0 = unlimited.
  int max_streams = 16;

  // Shared workers, which decode and sign every tenant's frames; <= 0 uses
  // HardwareThreads().
  int signature_workers = 0;

  // Each tenant's reorder window (PipelineOptions::queue_capacity) — the
  // per-stream frames-in-flight budget. A hot stream that runs a window
  // ahead of its own sequencer gets no further steps until it catches up;
  // it cannot crowd other tenants out of memory.
  int queue_capacity = 4;

  // Checkpoint cadence per tenant (see PipelineOptions); either trigger
  // requires publish_dir.
  int checkpoint_every_shots = 0;
  double checkpoint_every_media_seconds = 0.0;

  // The shared store every tenant publishes into through the farm's single
  // committer. Empty = analyse only, never publish.
  std::string publish_dir;

  // When set, the committer asks this vdbserve to RELOAD after publishes
  // (batched: back-to-back checkpoint commits coalesce into one reload).
  std::string reload_host;
  int reload_port = 0;

  // Graceful degradation: when a tenant with a target_fps falls more than
  // this many seconds behind real time, the farm sheds the lowest-weight
  // lagging tenant (cancelling its pipeline; its last published checkpoint
  // stays intact and a later Resume picks it up). 0 = never shed.
  double shed_after_seconds = 0.0;

  // Cadence of the lag/shed monitor.
  double monitor_interval_seconds = 0.005;

  // Test-only crash injection, forwarded to every store publish.
  FaultHook fault_hook;

  // Test hook: a tenant's checkpoint committed as `generation`.
  std::function<void(int tenant_index, uint64_t generation)>
      checkpoint_callback;
};

enum class StreamState {
  kPending,    // admitted, not yet started
  kRunning,
  kFinished,   // ran to the end of its source
  kShed,       // cancelled by the lag monitor
  kCancelled,  // cancelled by Cancel()
  kFailed,     // pipeline error
};

const char* StreamStateName(StreamState state);

// Live per-tenant counters, snapshotted by Metrics().
struct StreamMetrics {
  std::string name;
  StreamState state = StreamState::kPending;
  int weight = 1;
  double target_fps = 0.0;
  int frames_total = 0;
  long frames_done = 0;         // frames finalized so far
  uint64_t signature_steps = 0;  // work units the dispatcher served it
  double lag_seconds = 0.0;      // behind real time (target_fps only)
  bool lagging = false;
};

struct FarmMetrics {
  double elapsed_seconds = 0.0;
  int running = 0;
  int finished = 0;
  int shed = 0;
  int cancelled = 0;
  int failed = 0;
  uint64_t publishes = 0;
  uint64_t store_generation = 0;
  int reloads_ok = 0;
  int reload_failures = 0;
  int reloads_coalesced = 0;
  std::vector<StreamMetrics> streams;
};

// What one tenant's run came to.
struct StreamOutcome {
  std::string name;
  StreamState state = StreamState::kPending;
  Status status;  // the pipeline's failure; Ok unless state == kFailed
  // The finished analysis — byte-identical to a solo vdbstream run of the
  // same source. Empty (frame_count == 0) when shed/cancelled/failed.
  CatalogEntry entry;
  stream::PipelineReport report;
};

struct FarmReport {
  std::vector<StreamOutcome> streams;  // index-aligned with the specs
  double wall_seconds = 0.0;
  uint64_t publishes = 0;
  uint64_t store_generation = 0;  // newest generation the farm committed
  int reloads_ok = 0;
  int reload_failures = 0;
  int reloads_coalesced = 0;

  // Fairness record: each time a tenant finished, the per-tenant
  // frames-done counters at that instant (index-aligned with the specs).
  // The first snapshot is the fairness test's evidence — under skewed
  // offered load, min/max of the still-running tenants' progress stays
  // within the weighted bound.
  std::vector<std::vector<long>> completion_snapshots;

  FarmMetrics final_metrics;
};

// The multi-tenant real-time ingest farm: N streaming pipelines as tenants
// over one shared worker pool, with admission control at the front, the
// FairDispatcher in the middle, and the single-committer store publish
// path at the back.
//
//   shared workers ──FairDispatcher──> tenant steps (decode + sign a frame)
//   tenant thread: sequencer (SBD → features → scene tree)
//       ──checkpoints──> Committer ──one generation each──> store
//
// Each tenant owns one thread, which runs its pipeline's sequencer; the
// per-frame decode and signature work runs only on the shared workers.
// Per-tenant results are byte-identical to a solo run by construction: the
// dispatcher only changes *which thread* steps a frame and *when*, and the
// pipeline's reorder window already makes those irrelevant.
//
// A StreamFarm object runs once (Run or Resume); Cancel() may be called
// from any thread while it runs, and Metrics() gives a live snapshot.
class StreamFarm {
 public:
  explicit StreamFarm(FarmOptions options);
  ~StreamFarm();

  StreamFarm(const StreamFarm&) = delete;
  StreamFarm& operator=(const StreamFarm&) = delete;

  // Admits and runs every spec to completion (or shed/cancel/failure).
  // Admission is all-or-nothing: over max_streams, a duplicate name, or a
  // missing source refuses the whole offer before any work starts —
  // kUnavailable for the cap, kInvalidArgument for malformed specs.
  // Individual tenant failures do NOT fail the farm; they land in that
  // tenant's StreamOutcome.
  Result<FarmReport> Run(std::vector<StreamSpec> specs);

  // Like Run, but every tenant first tries to resume from its checkpoint
  // in publish_dir (Pipeline::Resume); a tenant with no checkpoint yet is
  // admitted as a fresh run. Converges to the same store as an
  // uninterrupted Run — the farm restart path after a crash or shed.
  Result<FarmReport> Resume(std::vector<StreamSpec> specs);

  // Cooperative cancellation of every running tenant. Safe from any
  // thread, idempotent.
  void Cancel();

  // Live snapshot; callable from any thread while Run/Resume executes.
  FarmMetrics Metrics() const;

 private:
  struct Tenant;

  Result<FarmReport> Execute(std::vector<StreamSpec> specs, bool resume);
  Status ValidateSpecs(const std::vector<StreamSpec>& specs, bool resume);
  void RunTenant(Tenant* tenant, bool resume);
  void MonitorLoop();
  void UpdateLagAndShed();
  void RecordCompletionSnapshot();
  FarmMetrics MetricsLocked() const;  // requires mu_

  FarmOptions options_;

  mutable std::mutex mu_;  // guards tenants_, snapshots, running_
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::vector<long>> completion_snapshots_;
  bool running_ = false;

  std::unique_ptr<FairDispatcher> dispatcher_;
  std::unique_ptr<Committer> committer_;
  std::atomic<int> active_{0};  // tenants not yet done
  std::atomic<bool> cancel_requested_{false};
  Stopwatch clock_;
};

}  // namespace farm
}  // namespace vdb

#endif  // VDB_FARM_FARM_H_
