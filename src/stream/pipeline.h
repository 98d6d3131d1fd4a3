#ifndef VDB_STREAM_PIPELINE_H_
#define VDB_STREAM_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/video_database.h"
#include "stream/dispatch.h"
#include "stream/frame_source.h"
#include "util/result.h"

namespace vdb {
namespace stream {

// What the publish hook (a farm::Committer) reports back for one
// checkpoint publish, mirrored into the pipeline's report.
struct PublishReceipt {
  uint64_t generation = 0;  // store generation this publish committed
  int reloads_ok = 0;
  int reload_failures = 0;
};

// Configuration of one streaming ingest run.
struct PipelineOptions {
  // Analysis knobs (detector, scene tree) — must match whatever already
  // lives in `publish_dir` or the equivalence guarantees are off.
  VideoDatabaseOptions database;

  // Frames in flight: the reorder window's slots. A frame is decoded only
  // while it is fewer than queue_capacity frames ahead of the next frame
  // to sequence, so the pipeline's peak pixel memory is
  // O(queue_capacity x frame), independent of clip length.
  int queue_capacity = 8;

  // Solo runs start signature_threads + 1 worker threads, each of which
  // decodes and signs one frame per step.
  int signature_threads = 1;

  // Checkpoint cadence: publish after every N closed shots and/or every M
  // media-seconds of closed shots (0 disables that trigger). Setting either
  // requires `publish`.
  int checkpoint_every_shots = 0;
  double checkpoint_every_media_seconds = 0.0;

  // The store directory `publish` commits into. Resume() seeds from the
  // entry stored there under the source's name.
  std::string publish_dir;

  // Publishes one entry — every checkpoint and the final analysis — and
  // reports what it committed. Callers wire it to a farm::Committer over
  // publish_dir, which owns the store's other videos, the FRAMEINDEX and
  // the server RELOAD. Unset = never publish: Run() only returns the entry.
  std::function<Result<PublishReceipt>(const CatalogEntry&)> publish;

  // External dispatch (the ingest farm): when set, the pipeline starts no
  // worker threads of its own. It attaches itself as a work source to this
  // dispatcher for the run, and the dispatcher's shared workers call
  // ProcessOne until the stream drains. signature_threads is ignored.
  SignatureDispatcher* dispatcher = nullptr;

  // Live progress hook: called on the sequencer after each in-order frame
  // with the count of frames finalized so far. The farm's lag tracker and
  // fairness metrics hang off this.
  std::function<void(int frames_done)> progress_callback;

  // Test hooks: called on the sequencer as each shot closes / checkpoint
  // publishes (generation, shots covered).
  std::function<void(const Shot&)> shot_callback;
  std::function<void(uint64_t generation, int shots)> checkpoint_callback;
};

// Per-stage accounting for one run. The queue fields of the decode and
// signature entries describe the reorder window: frames decoded but not yet
// signed, and frames signed but not yet sequenced. The sbd and finalize
// entries have none.
struct StageReport {
  std::string name;
  long items = 0;           // frames (finalize: frames and shots) handled
  double busy_seconds = 0;  // time spent working, excluding waits
  int queue_high_water = 0;  // peak number of frames in that window state
  uint64_t queue_total = 0;  // frames that ever entered it
};

struct PipelineReport {
  int frames = 0;
  int shots = 0;
  int checkpoints = 0;            // publishes, including the final one
  uint64_t store_generation = 0;  // newest generation this run published
  int reloads_ok = 0;
  int reload_failures = 0;

  // Latency milestones, seconds since Run() started (-1 = never happened).
  double first_shot_seconds = -1.0;
  double first_publish_seconds = -1.0;
  double total_seconds = 0.0;

  std::vector<StageReport> stages;

  // Peak number of decoded frames alive in the pipeline at once: each is
  // held by one worker's step, and each has a window slot, so this is at
  // most min(queue_capacity, workers).
  int max_frames_in_flight = 0;

  // Resume() only: how much of the clip was skipped.
  int resumed_from_frame = 0;
  int resumed_shots = 0;

  bool cancelled = false;
};

struct PipelineResult {
  // The finished analysis (same fields a batch Ingest would commit). After
  // a cancelled run this is the empty entry (frame_count == 0).
  CatalogEntry entry;
  PipelineReport report;
};

// The streaming ingest pipeline (the paper's Section 6 "still a long way
// from real time" motivates it): a clip of any length is analysed in
// bounded memory with shots, scene tree and index rows materialising
// incrementally, and the catalog publishable mid-ingest.
//
//   workers (solo threads or the farm's)     thread that called Run
//   step: decode f ─> sign f ──> window[f % queue_capacity] ──> sequencer
//
// * a step (ProcessOne) claims the next frame, decodes it while holding
//   the claim (the source is read by one thread at a time, in order),
//   then computes its signature outside it — pixels die here;
// * the sequencer takes the window's slots in frame order and runs, as
//   direct calls, StreamingShotDetector, per-shot features, the scene
//   tree (SceneTreeAccumulator) and, when due, a checkpoint publish.
//
// The result is bit-identical to batch ingest of the same clip — same
// shots, stats, features, tree — because every step is a streaming
// refactor of the batch code path, not a reimplementation, and the window
// puts frames back in order whatever order workers finish in.
//
// A Pipeline object runs once (Run or Resume); Cancel() may be called from
// any thread while it runs, a shot_callback included. Cancelling abandons
// the open shot: the store is left at the last published generation, and
// the returned report has cancelled = true with an empty entry.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options);

  // Analyses `source` from frame 0. Blocks until done, cancelled, or a
  // step fails; the first failure is the run's error.
  Result<PipelineResult> Run(FrameSource* source);

  // Continues a previous, interrupted run of the same clip: opens
  // options.publish_dir, finds the entry named source->name(), trusts its
  // analysis (shots, tree rows, stats) for frames [0, frame_count), seeks
  // the source there, and streams the rest. Requires a store entry whose
  // recorded geometry matches the source and detect_gradual == false (the
  // detector cannot re-enter a dissolve window from a checkpoint).
  // Converges to the same final catalog as an uninterrupted Run (pinned by
  // the kill-sweep test in tests/stream).
  Result<PipelineResult> Resume(FrameSource* source);

  // Cooperative cancellation: wakes the sequencer and the workers and
  // makes Run()/Resume() return with report.cancelled = true. Safe from
  // any thread, idempotent.
  void Cancel();

 private:
  class Runner;

  Result<PipelineResult> RunInternal(FrameSource* source, bool resume);

  PipelineOptions options_;
  std::atomic<bool> cancel_requested_{false};
  std::mutex runner_mu_;
  Runner* runner_ = nullptr;  // the active run, for Cancel()
};

}  // namespace stream
}  // namespace vdb

#endif  // VDB_STREAM_PIPELINE_H_
