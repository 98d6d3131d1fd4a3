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

  // Capacity of each inter-stage queue. Together with signature_threads
  // this bounds how many decoded frames exist at once: the pipeline's peak
  // pixel memory is O(queue_capacity x frame), independent of clip length.
  int queue_capacity = 8;

  // Fan-out of the signature stage (the only pixel-crunching stage).
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

  // External signature dispatch (the ingest farm): when set, the pipeline
  // spawns no signature workers of its own — it attaches a work source to
  // this dispatcher at run start, and the dispatcher's shared workers call
  // ProcessOne until the stream drains. signature_threads is ignored.
  SignatureDispatcher* dispatcher = nullptr;

  // Live progress hook: called from the finalize stage after each in-order
  // frame with the count of frames finalized so far. The farm's lag
  // tracker and fairness metrics hang off this.
  std::function<void(int frames_done)> progress_callback;

  // Test hooks: called from the finalize stage as each shot closes /
  // checkpoint publishes (generation, shots covered).
  std::function<void(const Shot&)> shot_callback;
  std::function<void(uint64_t generation, int shots)> checkpoint_callback;
};

// Per-stage accounting for one run.
struct StageReport {
  std::string name;
  long items = 0;           // frames (or events) the stage processed
  double busy_seconds = 0;  // time spent working, excluding queue waits
  int queue_high_water = 0;  // peak depth of the stage's *output* queue
  uint64_t queue_total = 0;  // items ever pushed through that queue
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

  // Peak number of decoded frames alive in the pipeline at once. Bounded
  // by queue_capacity + signature_threads + 1 (asserted in tests).
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
// from real time" motivates it): decode → signature → SBD → finalize
// stages connected by bounded MPMC queues, so a clip of any length is
// analysed in bounded memory with shots, scene tree and index rows
// materialising incrementally, and the catalog publishable mid-ingest.
//
//   decode ──q──> signature (xN) ──q──> SBD ──q──> finalize
//
// * decode pulls FrameSource sequentially (the only stage touching it);
// * signature workers run ComputeFrameSignature — pixels die here;
// * SBD reorders fan-out results and feeds StreamingShotDetector;
// * finalize appends signs, computes per-shot features, grows the scene
//   tree (SceneTreeAccumulator), and hands a checkpoint entry to the
//   publish hook when due.
//
// The result is bit-identical to batch ingest of the same clip — same
// shots, stats, features, tree — because every stage is a streaming
// refactor of the batch code path, not a reimplementation.
//
// A Pipeline object runs once (Run or Resume); Cancel() may be called from
// any thread while it runs. Cancelling abandons the open shot: the store
// is left at the last published generation, and the returned report has
// cancelled = true with an empty entry.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options);

  // Analyses `source` from frame 0. Blocks until done, cancelled, or a
  // stage fails.
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

  // Cooperative cancellation: wakes every stage and makes Run()/Resume()
  // return with report.cancelled = true. Safe from any thread, idempotent.
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
