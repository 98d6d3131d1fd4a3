#include "stream/pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/extractor.h"
#include "core/features.h"
#include "core/kernels.h"
#include "core/geometry.h"
#include "core/scene_tree.h"
#include "core/shot_detector.h"
#include "store/catalog_store.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vdb {
namespace stream {

// All state of one Run()/Resume() invocation, and the work source its
// workers step. A fresh Runner per run keeps Pipeline::Cancel() races
// simple: the pipeline only ever wakes the current runner, under
// runner_mu_.
//
// Frames move through a reorder window of `capacity_` slots. A step claims
// frame next_decode_, decodes it while holding the claim (so the source is
// read by one thread at a time, in frame order), then signs it with the
// claim released and parks the signature in slot frame % capacity_. The
// sequencer empties the slots in frame order. A step may claim frame f
// only while f < next_seq_ + capacity_, so every frame decoded and not yet
// sequenced has a slot of its own.
class Pipeline::Runner : public SignatureWorkSource {
 public:
  Runner(const PipelineOptions& options, std::atomic<bool>* cancel)
      : options_(options),
        cancel_(cancel),
        capacity_(std::max(1, options.queue_capacity)),
        window_(static_cast<size_t>(capacity_)),
        detector_(options.database.detector),
        acc_(options.database.scene_tree) {}

  // Wakes the sequencer and every idle worker; used by Cancel() and by
  // Fail(). Taking mu_ orders the stop flag before any waiter's next
  // predicate check, so no wakeup is lost.
  void Wake() {
    { std::lock_guard<std::mutex> lock(mu_); }
    ready_cv_.notify_all();
    work_cv_.notify_all();
  }

  Result<PipelineResult> Execute(FrameSource* source, bool resume);

  // Decodes the next frame and computes its signature. Never blocks on
  // this tenant: kIdle when another step holds the decode claim or the
  // window is full.
  Step ProcessOne(PyramidWorkspace* workspace) override;

 private:
  bool ShouldStop() const {
    return cancel_->load(std::memory_order_relaxed) ||
           aborted_.load(std::memory_order_relaxed);
  }

  // mu_ must be held. True when a step would not return kIdle.
  bool StepReadyLocked() const {
    return ShouldStop() || next_decode_ == end_frame_ ||
           (!decoding_ && next_decode_ < next_seq_ + capacity_);
  }

  // Records the first failure and stops the run.
  Status Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_.ok()) first_error_ = status;
    }
    aborted_.store(true, std::memory_order_relaxed);
    Wake();
    return status;
  }

  // A step may now be able to start: the decode claim was released or the
  // sequencer freed a slot.
  void NotifyWork() {
    if (options_.dispatcher != nullptr) {
      options_.dispatcher->NotifyWork();
    } else {
      work_cv_.notify_all();
    }
  }

  // Solo runs: a worker thread's loop.
  void WorkLoop();

  // The sequencer: SBD, shot features, scene tree, checkpoints, in frame
  // order, on the thread that called Run/Resume.
  Status Sequence(int start_frame);
  Status CloseShots(
      const std::vector<StreamingShotDetector::ClosedShot>& closed);
  Status CloseShot(const StreamingShotDetector::ClosedShot& closed);
  Status MaybeCheckpoint(const Shot& shot);

  // The analysis so far as a catalog entry covering frames
  // [0, covered_frames); `covered_frames` is the last closed shot's
  // boundary at a checkpoint and the whole clip at the end.
  Result<CatalogEntry> BuildEntry(int covered_frames) const;

  // Hands `entry` to the publish hook and mirrors its receipt into the
  // report.
  Status Publish(const CatalogEntry& entry);

  // Resume(): seeds detector/signs/shots/tree from the stored checkpoint.
  Status SeedFromStore(FrameSource* source);

  const PipelineOptions& options_;
  std::atomic<bool>* cancel_;
  const int capacity_;

  FrameSource* source_ = nullptr;
  AreaGeometry geometry_;
  std::string name_;
  double fps_ = 0.0;
  int end_frame_ = 0;

  // Window state and step accounting, guarded by mu_.
  std::mutex mu_;
  std::condition_variable ready_cv_;  // a slot became ready (sequencer)
  std::condition_variable work_cv_;   // a step may start (solo workers)
  // Slot f % capacity_ holds frame f's signature once it is signed.
  std::vector<std::optional<FrameSignature>> window_;
  bool decoding_ = false;  // a step holds the decode claim
  int next_decode_ = 0;
  int next_seq_ = 0;
  int decoded_ = 0;  // decoded, not yet signed: live pixel frames
  int signed_ = 0;   // signed, not yet sequenced
  int decoded_high_water_ = 0;
  int signed_high_water_ = 0;
  long frames_decoded_ = 0;
  double decode_busy_ = 0;
  long sig_items_ = 0;
  double sig_busy_ = 0;
  Status first_error_;
  std::atomic<bool> aborted_{false};

  // Sequencer state (one thread; no locking needed).
  StreamingShotDetector detector_;
  SceneTreeAccumulator acc_;
  VideoSignatures signs_;
  std::vector<Shot> shots_;
  std::vector<ShotFeatures> features_;
  SbdStageStats last_close_stats_;
  int shots_since_checkpoint_ = 0;
  int checkpoint_frame_ = 0;  // first frame not covered by the last publish
  long sbd_items_ = 0;
  double sbd_busy_ = 0;
  long fin_items_ = 0;
  double fin_busy_ = 0;

  Stopwatch run_clock_;
  int resume_frame_ = 0;
  PipelineReport report_;
};

SignatureWorkSource::Step Pipeline::Runner::ProcessOne(
    PyramidWorkspace* workspace) {
  int frame = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ShouldStop() || next_decode_ == end_frame_) return Step::kFinished;
    if (decoding_ || next_decode_ >= next_seq_ + capacity_) {
      return Step::kIdle;
    }
    decoding_ = true;
    frame = next_decode_;
  }

  Stopwatch sw;
  Result<Frame> pixels = source_->Next();
  const double decode_busy = sw.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    decoding_ = false;
    decode_busy_ += decode_busy;
    if (pixels.ok()) {
      ++next_decode_;
      ++frames_decoded_;
      decoded_high_water_ = std::max(decoded_high_water_, ++decoded_);
    }
  }
  if (!pixels.ok()) {
    Fail(pixels.status());
    return Step::kFinished;
  }
  NotifyWork();

  // The expensive part runs without the claim, so other workers can
  // decode and sign this tenant's next frames concurrently.
  sw.Reset();
  Result<FrameSignature> sig =
      ComputeFrameSignature(*pixels, geometry_, workspace);
  const double sig_busy = sw.ElapsedSeconds();
  *pixels = Frame();  // the pixels die here
  {
    std::lock_guard<std::mutex> lock(mu_);
    --decoded_;
    sig_busy_ += sig_busy;
    if (sig.ok()) {
      ++sig_items_;
      window_[static_cast<size_t>(frame % capacity_)] = std::move(*sig);
      signed_high_water_ = std::max(signed_high_water_, ++signed_);
    }
  }
  if (!sig.ok()) {
    Fail(sig.status());
    return Step::kFinished;
  }
  ready_cv_.notify_one();
  return Step::kProcessed;
}

void Pipeline::Runner::WorkLoop() {
  // The geometry is fixed for the whole run, so every frame after the
  // first reduces with zero allocations of scratch.
  PyramidWorkspace workspace;
  for (;;) {
    switch (ProcessOne(&workspace)) {
      case Step::kFinished:
        return;
      case Step::kProcessed:
        break;
      case Step::kIdle: {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return StepReadyLocked(); });
        break;
      }
    }
  }
}

Result<PipelineResult> Pipeline::Runner::Execute(FrameSource* source,
                                                 bool resume) {
  run_clock_.Reset();
  const bool publishing = static_cast<bool>(options_.publish);
  if ((options_.checkpoint_every_shots > 0 ||
       options_.checkpoint_every_media_seconds > 0) &&
      !publishing) {
    return Status::InvalidArgument(
        "checkpoint cadence set without a publish hook");
  }

  VDB_ASSIGN_OR_RETURN(geometry_, ComputeAreaGeometry(source->width(),
                                                      source->height()));
  signs_.geometry = geometry_;
  name_ = source->name();
  fps_ = source->fps();

  int start_frame = 0;
  if (resume) {
    VDB_RETURN_IF_ERROR(SeedFromStore(source));
    start_frame = resume_frame_;
  }
  source_ = source;
  end_frame_ = source->frame_count();
  next_decode_ = start_frame;
  next_seq_ = start_frame;

  // Steps run on the farm's shared workers, or on this run's own.
  std::vector<std::thread> workers;
  if (options_.dispatcher != nullptr) {
    VDB_RETURN_IF_ERROR(options_.dispatcher->Attach(this));
  } else {
    const int threads = std::max(1, options_.signature_threads) + 1;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([this] { WorkLoop(); });
    }
  }
  Status sequenced = Sequence(start_frame);
  if (!sequenced.ok()) Fail(sequenced);
  // After Detach no worker is inside ProcessOne, so tearing the runner
  // down is safe.
  if (options_.dispatcher != nullptr) options_.dispatcher->Detach(this);
  for (std::thread& worker : workers) worker.join();
  if (!first_error_.ok()) return first_error_;

  report_.total_seconds = run_clock_.ElapsedSeconds();
  report_.max_frames_in_flight = decoded_high_water_;
  report_.stages = {
      StageReport{"decode", frames_decoded_, decode_busy_,
                  decoded_high_water_,
                  static_cast<uint64_t>(frames_decoded_)},
      StageReport{"signature", sig_items_, sig_busy_, signed_high_water_,
                  static_cast<uint64_t>(sig_items_)},
      StageReport{"sbd", sbd_items_, sbd_busy_, 0, 0},
      StageReport{"finalize", fin_items_, fin_busy_, 0, 0},
  };

  PipelineResult result;
  if (cancel_->load()) {
    report_.cancelled = true;
    result.report = report_;
    return result;
  }
  if (signs_.frame_count() == 0) {
    return Status::InvalidArgument("source produced no frames");
  }

  VDB_ASSIGN_OR_RETURN(result.entry, BuildEntry(signs_.frame_count()));
  if (publishing) {
    VDB_RETURN_IF_ERROR(Publish(result.entry));
    report_.total_seconds = run_clock_.ElapsedSeconds();
  }
  result.report = report_;
  return result;
}

Status Pipeline::Runner::Sequence(int start_frame) {
  std::vector<StreamingShotDetector::ClosedShot> closed;
  for (int frame = start_frame; frame < end_frame_; ++frame) {
    FrameSignature sig;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::optional<FrameSignature>& slot =
          window_[static_cast<size_t>(frame % capacity_)];
      ready_cv_.wait(lock, [&] { return slot.has_value() || ShouldStop(); });
      // On cancel/abort, sequencing further frames could publish a
      // checkpoint the caller just cancelled; stop here instead.
      if (ShouldStop()) return Status::Ok();
      sig = std::move(*slot);
      slot.reset();
      --signed_;
      ++next_seq_;
    }
    NotifyWork();

    Stopwatch sw;
    closed.clear();
    detector_.PushFrame(sig, &closed);
    sbd_busy_ += sw.ElapsedSeconds();
    ++sbd_items_;

    // The detector copied what it keeps; the full signature, including the
    // signature line the catalog codec persists and the frame index
    // tokenizes, goes into the entry.
    sw.Reset();
    signs_.frames.push_back(std::move(sig));
    ++report_.frames;
    if (options_.progress_callback) {
      options_.progress_callback(report_.frames);
    }
    fin_busy_ += sw.ElapsedSeconds();
    ++fin_items_;
    VDB_RETURN_IF_ERROR(CloseShots(closed));
  }
  if (ShouldStop()) return Status::Ok();
  Stopwatch sw;
  closed.clear();
  detector_.Finish(&closed);
  sbd_busy_ += sw.ElapsedSeconds();
  VDB_RETURN_IF_ERROR(CloseShots(closed));
  last_close_stats_ = detector_.stage_stats();
  return Status::Ok();
}

Status Pipeline::Runner::CloseShots(
    const std::vector<StreamingShotDetector::ClosedShot>& closed) {
  for (const StreamingShotDetector::ClosedShot& c : closed) {
    if (ShouldStop()) return Status::Ok();
    Stopwatch sw;
    Status status = CloseShot(c);
    fin_busy_ += sw.ElapsedSeconds();
    ++fin_items_;
    VDB_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Status Pipeline::Runner::CloseShot(
    const StreamingShotDetector::ClosedShot& closed) {
  const Shot& shot = closed.shot;
  shots_.push_back(shot);
  VDB_ASSIGN_OR_RETURN(ShotFeatures features,
                       ComputeShotFeatures(signs_, shot));
  features_.push_back(features);
  VDB_RETURN_IF_ERROR(acc_.AddShot(signs_, shot));
  last_close_stats_ = closed.stats_at_close;
  ++report_.shots;
  if (report_.first_shot_seconds < 0) {
    report_.first_shot_seconds = run_clock_.ElapsedSeconds();
  }
  if (options_.shot_callback) options_.shot_callback(shot);
  return MaybeCheckpoint(shot);
}

Status Pipeline::Runner::MaybeCheckpoint(const Shot& shot) {
  ++shots_since_checkpoint_;
  bool due = options_.checkpoint_every_shots > 0 &&
             shots_since_checkpoint_ >= options_.checkpoint_every_shots;
  if (!due && options_.checkpoint_every_media_seconds > 0 && fps_ > 0) {
    double media_seconds = (shot.end_frame + 1 - checkpoint_frame_) / fps_;
    due = media_seconds >= options_.checkpoint_every_media_seconds;
  }
  if (!due) return Status::Ok();
  VDB_ASSIGN_OR_RETURN(CatalogEntry entry, BuildEntry(shot.end_frame + 1));
  VDB_RETURN_IF_ERROR(Publish(entry));
  shots_since_checkpoint_ = 0;
  checkpoint_frame_ = shot.end_frame + 1;
  return Status::Ok();
}

Result<CatalogEntry> Pipeline::Runner::BuildEntry(int covered_frames) const {
  CatalogEntry entry;
  entry.name = name_;
  entry.fps = fps_;
  entry.frame_count = covered_frames;
  entry.signatures.geometry = geometry_;
  entry.signatures.frames.assign(
      signs_.frames.begin(), signs_.frames.begin() + covered_frames);
  entry.shots = shots_;
  entry.features = features_;
  entry.sbd_stats = last_close_stats_;
  VDB_ASSIGN_OR_RETURN(entry.scene_tree, acc_.Finalize(entry.signatures));
  return entry;
}

Status Pipeline::Runner::Publish(const CatalogEntry& entry) {
  Result<PublishReceipt> receipt = options_.publish(entry);
  if (!receipt.ok()) return receipt.status();
  ++report_.checkpoints;
  report_.store_generation = receipt->generation;
  report_.reloads_ok += receipt->reloads_ok;
  report_.reload_failures += receipt->reload_failures;
  if (report_.first_publish_seconds < 0) {
    report_.first_publish_seconds = run_clock_.ElapsedSeconds();
  }
  if (options_.checkpoint_callback) {
    options_.checkpoint_callback(receipt->generation,
                                 static_cast<int>(shots_.size()));
  }
  return Status::Ok();
}

Status Pipeline::Runner::SeedFromStore(FrameSource* source) {
  if (options_.publish_dir.empty()) {
    return Status::InvalidArgument("Resume requires publish_dir");
  }
  if (options_.database.detector.detect_gradual) {
    return Status::FailedPrecondition(
        "Resume cannot re-enter a dissolve window; detect_gradual runs "
        "must restart from frame 0");
  }
  store::CatalogStore store(
      options_.publish_dir,
      store::StoreOptions{options_.database, /*fault_hook=*/nullptr});
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<VideoDatabase> db, store.Open());

  const CatalogEntry* found = nullptr;
  for (int id = 0; id < db->video_count(); ++id) {
    Result<const CatalogEntry*> entry = db->GetEntry(id);
    if (entry.ok() && (*entry)->name == source->name()) found = *entry;
  }
  if (found == nullptr) {
    return Status::NotFound(StrFormat("no checkpoint of '%s' in %s",
                                      source->name().c_str(),
                                      options_.publish_dir.c_str()));
  }
  if (found->signatures.geometry.frame_width != source->width() ||
      found->signatures.geometry.frame_height != source->height()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint of '%s' was computed for %dx%d frames, source is %dx%d",
        source->name().c_str(), found->signatures.geometry.frame_width,
        found->signatures.geometry.frame_height, source->width(),
        source->height()));
  }
  if (found->frame_count > source->frame_count()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint covers %d frames but the source has only %d",
        found->frame_count, source->frame_count()));
  }

  VDB_RETURN_IF_ERROR(detector_.ResumeAt(found->frame_count,
                                         found->sbd_stats));
  signs_ = found->signatures;
  shots_ = found->shots;
  features_ = found->features;
  for (const Shot& shot : shots_) {
    VDB_RETURN_IF_ERROR(acc_.AddShot(signs_, shot));
  }
  last_close_stats_ = found->sbd_stats;
  resume_frame_ = found->frame_count;
  checkpoint_frame_ = found->frame_count;
  report_.resumed_from_frame = resume_frame_;
  report_.resumed_shots = static_cast<int>(shots_.size());
  return source->SeekToFrame(resume_frame_);
}

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {}

Result<PipelineResult> Pipeline::Run(FrameSource* source) {
  return RunInternal(source, /*resume=*/false);
}

Result<PipelineResult> Pipeline::Resume(FrameSource* source) {
  return RunInternal(source, /*resume=*/true);
}

Result<PipelineResult> Pipeline::RunInternal(FrameSource* source,
                                             bool resume) {
  if (source == nullptr) {
    return Status::InvalidArgument("null frame source");
  }
  Runner runner(options_, &cancel_requested_);
  {
    std::lock_guard<std::mutex> lock(runner_mu_);
    if (runner_ != nullptr) {
      return Status::FailedPrecondition("pipeline is already running");
    }
    runner_ = &runner;
  }
  Result<PipelineResult> result = runner.Execute(source, resume);
  {
    std::lock_guard<std::mutex> lock(runner_mu_);
    runner_ = nullptr;
  }
  return result;
}

void Pipeline::Cancel() {
  cancel_requested_.store(true);
  std::lock_guard<std::mutex> lock(runner_mu_);
  if (runner_ != nullptr) runner_->Wake();
}

}  // namespace stream
}  // namespace vdb
