#ifndef VDB_STREAM_DISPATCH_H_
#define VDB_STREAM_DISPATCH_H_

#include "util/status.h"

namespace vdb {

class PyramidWorkspace;

namespace stream {

// External dispatch: the seam between one streaming Pipeline and a
// multi-tenant scheduler (farm/). A solo pipeline starts its own workers;
// under a farm, the pipeline instead attaches itself as a
// SignatureWorkSource to the farm's dispatcher, and the farm's *shared*
// worker threads step whichever tenant the scheduler picks. One step
// decodes one frame and computes its signature, so fairness covers the
// whole per-frame CPU cost and lives entirely outside the pipeline. The
// analysis stays byte-identical to a solo run by construction: the step
// is the same in both, and the pipeline's reorder window puts results back
// in frame order whatever order workers finish in.

// One tenant's per-frame work, pulled a step at a time by shared workers.
// Implemented by the pipeline's runner; ProcessOne is safe to call from any
// number of worker threads concurrently.
class SignatureWorkSource {
 public:
  enum class Step {
    kProcessed,  // one frame was decoded and signed
    kIdle,       // no frame can start right now (another step is
                 // decoding, or the reorder window is full) — try again
                 // after a NotifyWork
    kFinished,   // every frame is claimed or the run stopped; this source
                 // has no more steps for good
  };

  virtual ~SignatureWorkSource() = default;

  // Decodes and signs at most one frame without ever blocking on this
  // tenant. `workspace` is the calling worker's scratch (core/kernels.h),
  // reused across tenants of identical geometry cost.
  virtual Step ProcessOne(PyramidWorkspace* workspace) = 0;
};

// What the pipeline sees of the farm's scheduler. One dispatcher handle is
// wired per tenant (PipelineOptions::dispatcher), so the scheduler knows
// which tenant is attaching without the pipeline carrying an identity.
class SignatureDispatcher {
 public:
  virtual ~SignatureDispatcher() = default;

  // Called by the pipeline as its run starts. After Attach returns, worker
  // threads may call source->ProcessOne at any time until Detach.
  virtual Status Attach(SignatureWorkSource* source) = 0;

  // Called by the pipeline as its run ends. Blocks until no worker is
  // inside `source` and guarantees it is never picked again, so the caller
  // may destroy the source immediately after.
  virtual void Detach(SignatureWorkSource* source) = 0;

  // Hint that a step may now start on the attached source; the scheduler
  // should route a worker at it soon. Called by the pipeline when a step
  // releases the decode claim and when the sequencer frees a window slot.
  virtual void NotifyWork() = 0;
};

}  // namespace stream
}  // namespace vdb

#endif  // VDB_STREAM_DISPATCH_H_
