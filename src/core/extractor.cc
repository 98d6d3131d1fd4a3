#include "core/extractor.h"

#include "core/kernels.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace vdb {

Result<FrameSignature> ComputeFrameSignature(const Frame& frame,
                                             const AreaGeometry& geom,
                                             PyramidWorkspace* workspace) {
  return workspace->Compute(frame, geom);
}

Result<FrameSignature> ComputeFrameSignature(const Frame& frame,
                                             const AreaGeometry& geom) {
  // One workspace per thread: workers that extract many frames (batch
  // ingest pools, the streaming pipeline's workers) reuse their scratch
  // across frames and allocate nothing in steady state.
  thread_local PyramidWorkspace workspace;
  return workspace.Compute(frame, geom);
}

namespace {

// Shared body of the serial and parallel passes: frame i reduces into its
// own pre-sized slot, so the parallel pass needs no locking and both paths
// produce bit-identical output.
Result<VideoSignatures> ComputeSignatures(const Video& video,
                                          int num_threads) {
  if (video.empty()) {
    return Status::InvalidArgument("video '" + video.name() +
                                   "' has no frames");
  }
  VideoSignatures out;
  VDB_ASSIGN_OR_RETURN(out.geometry,
                       ComputeAreaGeometry(video.width(), video.height()));
  out.frames.resize(static_cast<size_t>(video.frame_count()));
  if (num_threads <= 1) {
    // Serial pass: one explicit workspace for the whole clip, reducing
    // straight into the pre-sized slots.
    PyramidWorkspace workspace;
    for (int i = 0; i < video.frame_count(); ++i) {
      VDB_RETURN_IF_ERROR(workspace.ComputeInto(
          video.frame(i), out.geometry,
          &out.frames[static_cast<size_t>(i)]));
    }
    return out;
  }
  VDB_RETURN_IF_ERROR(ParallelFor(
      video.frame_count(), num_threads, [&](int i) -> Status {
        VDB_ASSIGN_OR_RETURN(
            out.frames[static_cast<size_t>(i)],
            ComputeFrameSignature(video.frame(i), out.geometry));
        return Status::Ok();
      }));
  return out;
}

}  // namespace

Result<VideoSignatures> ComputeVideoSignatures(const Video& video) {
  return ComputeSignatures(video, 1);
}

Result<VideoSignatures> ComputeVideoSignaturesParallel(const Video& video,
                                                       int num_threads) {
  if (num_threads <= 0) num_threads = HardwareThreads();
  return ComputeSignatures(video, num_threads);
}

}  // namespace vdb
