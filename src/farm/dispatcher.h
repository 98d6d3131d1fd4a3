#ifndef VDB_FARM_DISPATCHER_H_
#define VDB_FARM_DISPATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "stream/dispatch.h"
#include "util/status.h"

namespace vdb {
namespace farm {

// The farm's fair scheduler: a weighted round-robin dispatcher that feeds
// shared workers one frame of one tenant's work at a time. A step decodes
// the frame and computes its signature, so the scheduler shares out the
// whole per-frame CPU cost.
//
// Every tenant registers a slot (AddTenant) whose handle is wired into its
// pipeline (PipelineOptions::dispatcher). Shared workers run RunWorker();
// each iteration picks the next tenant in round-robin order that (a) has
// work hinted available and (b) has fair-share credits left this round,
// then performs exactly one ProcessOne step. Credits refill to the
// tenant's weight once every tenant's are spent, so over any window the
// service ratio between two backlogged tenants tracks their weight ratio —
// a hot stream cannot starve the rest, because it can run at most its
// reorder window ahead of its own sequencer while the scheduler keeps
// cycling.
//
// Work hints keep the loop from busy-spinning: a slot is pollable when its
// pipeline signalled that a step may start (NotifyWork) or its last step
// made progress. When nothing is pollable, workers sleep on a condition
// variable with a short timeout and then re-poll every attached tenant;
// the timeout is the liveness backstop should a hint ever be missed.
class FairDispatcher {
 public:
  struct Options {
    // Re-poll cadence while no work hints arrive.
    int idle_repoll_micros = 2000;
  };

  FairDispatcher();
  explicit FairDispatcher(Options options);
  ~FairDispatcher();

  FairDispatcher(const FairDispatcher&) = delete;
  FairDispatcher& operator=(const FairDispatcher&) = delete;

  // Registers tenant `tenant_index` with fair-share `weight` (>= 1) and
  // returns the dispatcher handle its pipeline must be pointed at. The
  // handle is owned by the dispatcher and stays valid for its lifetime.
  // Call before workers start (the farm registers every admitted tenant
  // up front).
  stream::SignatureDispatcher* AddTenant(int tenant_index, int weight);

  // Worker loop body; run one per shared worker thread. Returns
  // once Close() was called and every attached source has detached.
  void RunWorker();

  // No further tenants will register; workers exit when all work is done.
  void Close();

  // Steps (frames decoded and signed) served per tenant, indexed by
  // tenant_index.
  std::vector<uint64_t> ProcessedCounts() const;

  // Invoked (without the dispatcher lock held) the first time each
  // tenant's stream finishes — the farm snapshots per-tenant progress here
  // for the fairness record. Set before workers start.
  std::function<void(int tenant_index)> finished_callback;

 private:
  struct Slot;
  class Handle;

  Status Attach(Slot* slot, stream::SignatureWorkSource* source);
  void Detach(Slot* slot, stream::SignatureWorkSource* source);
  void Notify(Slot* slot);

  // All three require mu_ held.
  Slot* PickLocked();
  bool AllDoneLocked() const;
  void RepollLocked();

  void ReportFinished(int tenant_index);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // a slot may have become pollable
  std::condition_variable detach_cv_;  // a slot's in_use dropped to zero
  std::vector<std::unique_ptr<Slot>> slots_;
  size_t cursor_ = 0;
  bool closed_ = false;
};

}  // namespace farm
}  // namespace vdb

#endif  // VDB_FARM_DISPATCHER_H_
