#include "stream/pipeline.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "core/extractor.h"
#include "core/features.h"
#include "core/kernels.h"
#include "core/geometry.h"
#include "core/scene_tree.h"
#include "core/shot_detector.h"
#include "store/catalog_store.h"
#include "util/bounded_queue.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vdb {
namespace stream {
namespace {

// One decoded frame travelling decode → signature. The pixels are the
// pipeline's only unbounded-size payload; they die in the signature stage.
struct DecodedFrame {
  int frame = 0;
  Frame pixels;
};

// One reduced frame travelling signature → SBD (out of order when the
// signature stage fans out).
struct SigItem {
  int frame = 0;
  FrameSignature sig;
};

// What the SBD stage tells the finalize stage. Per in-order frame it emits
// one kFrameSigns carrying the whole frame signature — including the
// signature line, which the VDBCAT02 catalog codec persists and the frame
// index tokenizes, so the streamed entry stays byte-identical to batch —
// then zero or more kShotClosed, and a single kFinish carrying the final
// cumulative statistics at end of stream.
struct SbdEvent {
  enum class Kind { kFrameSigns, kShotClosed, kFinish };
  Kind kind = Kind::kFrameSigns;
  int frame = 0;
  FrameSignature sig;
  Shot shot;
  SbdStageStats stats;
};

}  // namespace

// All state of one Run()/Resume() invocation. A fresh Runner per run keeps
// Pipeline::Cancel() races simple: the pipeline only ever closes the
// current runner's queues under runner_mu_.
class Pipeline::Runner {
 public:
  Runner(const PipelineOptions& options, std::atomic<bool>* cancel)
      : options_(options),
        cancel_(cancel),
        decode_q_(static_cast<size_t>(std::max(1, options.queue_capacity))),
        sig_q_(static_cast<size_t>(std::max(1, options.queue_capacity))),
        event_q_(static_cast<size_t>(std::max(1, options.queue_capacity))),
        detector_(options.database.detector),
        acc_(options.database.scene_tree) {}

  // Wakes every stage; used by Cancel() and by internal failure teardown.
  void CloseAll() {
    decode_q_.Close();
    sig_q_.Close();
    event_q_.Close();
  }

  Result<PipelineResult> Execute(FrameSource* source, bool resume);

 private:
  bool ShouldStop() const {
    return cancel_->load(std::memory_order_relaxed) ||
           aborted_.load(std::memory_order_relaxed);
  }

  // Records the first internal failure and tears the pipeline down.
  Status Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (first_error_.ok()) first_error_ = status;
    }
    aborted_.store(true, std::memory_order_relaxed);
    CloseAll();
    return status;
  }

  void NoteInFlight(int delta) {
    int now = frames_in_flight_.fetch_add(delta, std::memory_order_relaxed) +
              delta;
    int seen = max_in_flight_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_in_flight_.compare_exchange_weak(seen, now,
                                                 std::memory_order_relaxed)) {
    }
  }

  class SignatureAdapter;

  Status DecodeStage(FrameSource* source, int start_frame);
  Status SignatureStage();
  Status SbdStage(int start_frame);
  Status FinalizeStage();
  Status HandleEvent(const SbdEvent& event);
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

  BoundedQueue<DecodedFrame> decode_q_;
  BoundedQueue<SigItem> sig_q_;
  BoundedQueue<SbdEvent> event_q_;

  StreamingShotDetector detector_;
  SceneTreeAccumulator acc_;

  // External dispatch only: the work source the farm's shared signature
  // workers drive instead of this runner's own SignatureStage tasks.
  std::unique_ptr<SignatureAdapter> adapter_;

  AreaGeometry geometry_;
  std::string name_;
  double fps_ = 0.0;

  // Finalize-stage state (single consumer; no locking needed).
  VideoSignatures signs_;
  std::vector<Shot> shots_;
  std::vector<ShotFeatures> features_;
  SbdStageStats last_close_stats_;
  bool saw_finish_ = false;
  int shots_since_checkpoint_ = 0;
  int checkpoint_frame_ = 0;  // first frame not covered by the last publish

  std::atomic<bool> aborted_{false};
  std::mutex error_mu_;
  Status first_error_;

  std::atomic<int> frames_in_flight_{0};
  std::atomic<int> max_in_flight_{0};
  std::atomic<int> sig_workers_left_{0};

  // Per-stage accounting; the signature entries aggregate all workers.
  std::mutex stats_mu_;
  long frames_decoded_ = 0;
  double decode_busy_ = 0;
  long sig_items_ = 0;
  double sig_busy_ = 0;
  long sbd_items_ = 0;
  double sbd_busy_ = 0;
  long fin_items_ = 0;
  double fin_busy_ = 0;

  Stopwatch run_clock_;
  int resume_frame_ = 0;
  PipelineReport report_;
};

// Shared-worker signature execution for one tenant (external dispatch).
// ProcessOne never blocks on this tenant's queues: a decoded frame is
// claimed with TryPop, and a result that cannot be pushed because sig_q_
// is momentarily full is stashed in `pending_` and flushed first on the
// next call — a farm worker is never parked on a tenant whose downstream
// is slow. Any number of workers may be inside ProcessOne at once; the
// (claim, active_) bookkeeping is atomic under mu_ so exactly one caller
// observes the drained stream and closes sig_q_.
class Pipeline::Runner::SignatureAdapter : public SignatureWorkSource {
 public:
  explicit SignatureAdapter(Runner* runner) : runner_(runner) {}

  Step ProcessOne(PyramidWorkspace* workspace) override {
    Runner* r = runner_;
    DecodedFrame item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Flush backpressured results first; order does not matter (the SBD
      // stage reorders), so head-of-line is as good as any.
      while (!pending_.empty() && r->sig_q_.TryPush(&pending_.front())) {
        pending_.pop_front();
      }
      if (!pending_.empty()) return CheckDone(r);
      if (!r->decode_q_.TryPop(&item)) return CheckDone(r);
      ++active_;
    }

    // The expensive part runs outside the adapter lock, so other workers
    // can claim this tenant's next frames concurrently.
    Stopwatch sw;
    Result<FrameSignature> sig =
        ComputeFrameSignature(item.pixels, r->geometry_, workspace);
    double busy = sw.ElapsedSeconds();
    item.pixels = Frame();  // the pixels die here
    r->NoteInFlight(-1);
    {
      std::lock_guard<std::mutex> stats_lock(r->stats_mu_);
      r->sig_busy_ += busy;
      if (sig.ok()) ++r->sig_items_;
    }
    if (!sig.ok()) {
      r->Fail(sig.status());
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      return CheckDone(r);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      SigItem out{item.frame, std::move(*sig)};
      if (!r->sig_q_.TryPush(&out) && !r->sig_q_.closed()) {
        pending_.push_back(std::move(out));
      }
      CheckDone(r);  // the worker finishing the last frame closes sig_q_
    }
    return Step::kProcessed;
  }

  TenantQueueStats QueueStats() const override {
    Runner* r = runner_;
    TenantQueueStats s;
    s.decode_depth = r->decode_q_.size();
    s.decode_high_water = r->decode_q_.high_water();
    s.decode_total = r->decode_q_.total_pushed();
    s.signature_depth = r->sig_q_.size();
    s.signature_high_water = r->sig_q_.high_water();
    s.signature_total = r->sig_q_.total_pushed();
    return s;
  }

 private:
  // mu_ must be held. The stream is finished when decode has closed and
  // drained, nothing is stashed, and no worker is mid-compute — or the
  // runner is tearing down anyway.
  Step CheckDone(Runner* r) {
    if (r->ShouldStop() ||
        (r->decode_q_.closed() && r->decode_q_.size() == 0 &&
         pending_.empty() && active_ == 0)) {
      r->sig_q_.Close();
      return Step::kFinished;
    }
    return Step::kIdle;
  }

  Runner* runner_;
  std::mutex mu_;
  std::deque<SigItem> pending_;  // computed, awaiting room in sig_q_
  int active_ = 0;               // workers currently computing a frame
};

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

  // External dispatch: the signature stage belongs to the farm's shared
  // workers, not to this runner.
  const bool external = options_.dispatcher != nullptr;
  const int sig_threads = external ? 0 : std::max(1, options_.signature_threads);
  sig_workers_left_.store(sig_threads);

  {
    // One worker per stage plus the signature fan-out. The pool must not
    // run stages inline (a stage blocks on its queues), so never fewer
    // than 2 pool threads.
    ThreadPool pool(3 + sig_threads);
    if (external) {
      adapter_ = std::make_unique<SignatureAdapter>(this);
      Status attached = options_.dispatcher->Attach(adapter_.get());
      if (!attached.ok()) return attached;
    }
    pool.Submit([this, source, start_frame] {
      return DecodeStage(source, start_frame);
    });
    for (int i = 0; i < sig_threads; ++i) {
      pool.Submit([this] { return SignatureStage(); });
    }
    pool.Submit([this, start_frame] { return SbdStage(start_frame); });
    pool.Submit([this] { return FinalizeStage(); });
    Status run = pool.Wait();
    // After Detach no worker is inside the adapter, so tearing the runner
    // down (and with it the queues) is safe.
    if (external) options_.dispatcher->Detach(adapter_.get());
    if (!run.ok()) return run;
  }
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_.ok()) return first_error_;
  }

  report_.total_seconds = run_clock_.ElapsedSeconds();
  report_.max_frames_in_flight = max_in_flight_.load();
  report_.stages = {
      StageReport{"decode", frames_decoded_, decode_busy_,
                  static_cast<int>(decode_q_.high_water()),
                  decode_q_.total_pushed()},
      StageReport{"signature", sig_items_, sig_busy_,
                  static_cast<int>(sig_q_.high_water()),
                  sig_q_.total_pushed()},
      StageReport{"sbd", sbd_items_, sbd_busy_,
                  static_cast<int>(event_q_.high_water()),
                  event_q_.total_pushed()},
      StageReport{"finalize", fin_items_, fin_busy_, 0, 0},
  };

  PipelineResult result;
  if (cancel_->load()) {
    report_.cancelled = true;
    result.report = report_;
    return result;
  }
  if (!saw_finish_) {
    return Status::Internal("pipeline stopped without finishing the stream");
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

Status Pipeline::Runner::DecodeStage(FrameSource* source, int start_frame) {
  const int total = source->frame_count();
  for (int frame = start_frame; frame < total; ++frame) {
    if (ShouldStop()) break;
    Stopwatch sw;
    Result<Frame> pixels = source->Next();
    decode_busy_ += sw.ElapsedSeconds();
    if (!pixels.ok()) return Fail(pixels.status());
    ++frames_decoded_;
    NoteInFlight(+1);
    if (!decode_q_.Push(DecodedFrame{frame, std::move(*pixels)})) {
      NoteInFlight(-1);  // dropped: the queue was closed under us
      break;
    }
    if (options_.dispatcher != nullptr) options_.dispatcher->NotifyWork();
  }
  decode_q_.Close();
  return Status::Ok();
}

Status Pipeline::Runner::SignatureStage() {
  DecodedFrame item;
  double busy = 0;
  long count = 0;
  // One pyramid workspace per signature worker: the geometry is fixed for
  // the whole run, so every frame after the first reduces with zero
  // allocations of scratch.
  PyramidWorkspace workspace;
  Status result = Status::Ok();
  while (decode_q_.Pop(&item)) {
    Stopwatch sw;
    Result<FrameSignature> sig =
        ComputeFrameSignature(item.pixels, geometry_, &workspace);
    busy += sw.ElapsedSeconds();
    item.pixels = Frame();  // the pixels die here
    NoteInFlight(-1);
    if (!sig.ok()) {
      result = Fail(sig.status());
      break;
    }
    ++count;
    if (!sig_q_.Push(SigItem{item.frame, std::move(*sig)})) break;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    sig_busy_ += busy;
    sig_items_ += count;
  }
  // Last worker out closes the downstream queue.
  if (sig_workers_left_.fetch_sub(1) == 1) sig_q_.Close();
  return result;
}

Status Pipeline::Runner::SbdStage(int start_frame) {
  // Fan-out reorder buffer: signature workers finish out of order; the
  // detector needs frames in order. Holds at most signature_threads items.
  std::map<int, FrameSignature> pending;
  int next = start_frame;
  SigItem item;
  std::vector<StreamingShotDetector::ClosedShot> closed;
  bool open = true;
  while (open && sig_q_.Pop(&item)) {
    pending.emplace(item.frame, std::move(item.sig));
    for (auto it = pending.find(next); it != pending.end() && open;
         it = pending.find(next)) {
      Stopwatch sw;
      closed.clear();
      detector_.PushFrame(it->second, &closed);
      sbd_busy_ += sw.ElapsedSeconds();
      ++sbd_items_;
      SbdEvent signs;
      signs.kind = SbdEvent::Kind::kFrameSigns;
      signs.frame = next;
      // The detector copied what it keeps; hand the full signature on.
      signs.sig = std::move(it->second);
      pending.erase(it);
      ++next;
      open = event_q_.Push(std::move(signs));
      for (const auto& c : closed) {
        if (!open) break;
        SbdEvent ev;
        ev.kind = SbdEvent::Kind::kShotClosed;
        ev.shot = c.shot;
        ev.stats = c.stats_at_close;
        open = event_q_.Push(std::move(ev));
      }
    }
  }
  if (open && !ShouldStop()) {
    Stopwatch sw;
    closed.clear();
    detector_.Finish(&closed);
    sbd_busy_ += sw.ElapsedSeconds();
    for (const auto& c : closed) {
      if (!open) break;
      SbdEvent ev;
      ev.kind = SbdEvent::Kind::kShotClosed;
      ev.shot = c.shot;
      ev.stats = c.stats_at_close;
      open = event_q_.Push(std::move(ev));
    }
    if (open) {
      SbdEvent fin;
      fin.kind = SbdEvent::Kind::kFinish;
      fin.stats = detector_.stage_stats();
      event_q_.Push(std::move(fin));
    }
  }
  event_q_.Close();
  return Status::Ok();
}

Status Pipeline::Runner::FinalizeStage() {
  SbdEvent event;
  // On cancel/abort the queue still drains (Pop keeps returning items after
  // Close), but processing them could publish a checkpoint the caller just
  // cancelled — stop at the first opportunity instead.
  while (!ShouldStop() && event_q_.Pop(&event)) {
    Stopwatch sw;
    Status handled = HandleEvent(event);
    fin_busy_ += sw.ElapsedSeconds();
    ++fin_items_;
    if (!handled.ok()) return Fail(handled);
  }
  return Status::Ok();
}

Status Pipeline::Runner::HandleEvent(const SbdEvent& event) {
  switch (event.kind) {
    case SbdEvent::Kind::kFrameSigns: {
      signs_.frames.push_back(event.sig);
      ++report_.frames;
      if (options_.progress_callback) {
        options_.progress_callback(report_.frames);
      }
      return Status::Ok();
    }
    case SbdEvent::Kind::kShotClosed: {
      shots_.push_back(event.shot);
      VDB_ASSIGN_OR_RETURN(ShotFeatures features,
                           ComputeShotFeatures(signs_, event.shot));
      features_.push_back(features);
      VDB_RETURN_IF_ERROR(acc_.AddShot(signs_, event.shot));
      last_close_stats_ = event.stats;
      ++report_.shots;
      if (report_.first_shot_seconds < 0) {
        report_.first_shot_seconds = run_clock_.ElapsedSeconds();
      }
      if (options_.shot_callback) options_.shot_callback(event.shot);
      return MaybeCheckpoint(event.shot);
    }
    case SbdEvent::Kind::kFinish:
      last_close_stats_ = event.stats;
      saw_finish_ = true;
      return Status::Ok();
  }
  return Status::Internal("unhandled pipeline event");
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
  // A cancel that raced ahead of the launch still wins.
  if (cancel_requested_.load()) runner.CloseAll();
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
  if (runner_ != nullptr) runner_->CloseAll();
}

}  // namespace stream
}  // namespace vdb
