#include "farm/dispatcher.h"

#include <chrono>

#include "core/kernels.h"

namespace vdb {
namespace farm {

// One tenant's scheduling state. `has_work` is a hint, not a guarantee: it
// is consumed when a worker picks the slot and re-armed by NotifyWork or by
// a step that made progress, so a stream with frames left keeps getting
// picked while an idle one costs at most one failed poll per re-poll tick.
struct FairDispatcher::Slot {
  int tenant_index = 0;
  int weight = 1;
  int credits = 0;  // fair-share budget left in the current round
  stream::SignatureWorkSource* source = nullptr;
  bool has_work = false;
  bool finished = false;         // source reported kFinished or detached
  bool finish_reported = false;  // finished_callback already fired
  int in_use = 0;                // workers currently inside ProcessOne
  uint64_t processed = 0;
  std::unique_ptr<Handle> handle;
};

// The per-tenant facade handed to a pipeline: routes the pipeline's
// attach/detach/notify into the shared dispatcher's slot.
class FairDispatcher::Handle : public stream::SignatureDispatcher {
 public:
  Handle(FairDispatcher* owner, Slot* slot) : owner_(owner), slot_(slot) {}

  Status Attach(stream::SignatureWorkSource* source) override {
    return owner_->Attach(slot_, source);
  }
  void Detach(stream::SignatureWorkSource* source) override {
    owner_->Detach(slot_, source);
  }
  void NotifyWork() override { owner_->Notify(slot_); }

 private:
  FairDispatcher* owner_;
  Slot* slot_;
};

FairDispatcher::FairDispatcher() : FairDispatcher(Options()) {}

FairDispatcher::FairDispatcher(Options options) : options_(options) {}

FairDispatcher::~FairDispatcher() = default;

stream::SignatureDispatcher* FairDispatcher::AddTenant(int tenant_index,
                                                       int weight) {
  std::lock_guard<std::mutex> lock(mu_);
  auto slot = std::make_unique<Slot>();
  slot->tenant_index = tenant_index;
  slot->weight = weight < 1 ? 1 : weight;
  slot->credits = slot->weight;
  slot->handle = std::make_unique<Handle>(this, slot.get());
  slots_.push_back(std::move(slot));
  return slots_.back()->handle.get();
}

Status FairDispatcher::Attach(Slot* slot,
                              stream::SignatureWorkSource* source) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return Status::FailedPrecondition("dispatcher already closed");
    }
    slot->source = source;
    slot->finished = false;
    slot->has_work = true;  // poll at least once even before any notify
  }
  work_cv_.notify_all();
  return Status::Ok();
}

void FairDispatcher::Detach(Slot* slot,
                            stream::SignatureWorkSource* source) {
  bool report = false;
  int index = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (slot->source != source) return;
    // Block until no worker is inside ProcessOne: after Detach returns the
    // pipeline may destroy the source.
    detach_cv_.wait(lock, [slot] { return slot->in_use == 0; });
    slot->source = nullptr;
    slot->finished = true;
    // A stream can detach before any worker observed its kFinished (its
    // sequencer finished ahead of the next poll) — report it here so the
    // fairness record never misses a finisher.
    if (!slot->finish_reported) {
      slot->finish_reported = true;
      report = true;
      index = slot->tenant_index;
    }
  }
  work_cv_.notify_all();  // AllDone may hold now
  if (report) ReportFinished(index);
}

void FairDispatcher::Notify(Slot* slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot->source == nullptr || slot->finished) return;
    slot->has_work = true;
  }
  work_cv_.notify_one();
}

void FairDispatcher::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
}

FairDispatcher::Slot* FairDispatcher::PickLocked() {
  const size_t n = slots_.size();
  if (n == 0) return nullptr;
  // Two passes: first within the current round's credits, then refill and
  // rescan — so weights shape the long-run service ratio without ever
  // stalling when only over-budget tenants have work.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < n; ++k) {
      Slot* s = slots_[(cursor_ + k) % n].get();
      if (s->source == nullptr || s->finished || !s->has_work) continue;
      if (s->credits <= 0) continue;
      --s->credits;
      s->has_work = false;  // consumed; progress or a notify re-arms it
      cursor_ = (cursor_ + k + 1) % n;
      return s;
    }
    bool any_ready = false;
    for (auto& s : slots_) {
      s->credits = s->weight;
      if (s->source != nullptr && !s->finished && s->has_work) {
        any_ready = true;
      }
    }
    if (!any_ready) return nullptr;
  }
  return nullptr;
}

bool FairDispatcher::AllDoneLocked() const {
  if (!closed_) return false;
  for (const auto& s : slots_) {
    if (s->source != nullptr) return false;
  }
  return true;
}

void FairDispatcher::RepollLocked() {
  // Liveness backstop: periodically every attached tenant becomes
  // pollable again, whether or not a NotifyWork arrived.
  for (auto& s : slots_) {
    if (s->source != nullptr && !s->finished) s->has_work = true;
  }
}

void FairDispatcher::ReportFinished(int tenant_index) {
  if (finished_callback) finished_callback(tenant_index);
}

void FairDispatcher::RunWorker() {
  PyramidWorkspace workspace;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Slot* pick = PickLocked();
    if (pick == nullptr) {
      if (AllDoneLocked()) return;
      work_cv_.wait_for(
          lock, std::chrono::microseconds(options_.idle_repoll_micros));
      RepollLocked();
      continue;
    }
    stream::SignatureWorkSource* source = pick->source;
    ++pick->in_use;
    lock.unlock();

    const stream::SignatureWorkSource::Step step =
        source->ProcessOne(&workspace);

    bool report = false;
    int index = 0;
    lock.lock();
    --pick->in_use;
    if (pick->in_use == 0) detach_cv_.notify_all();
    switch (step) {
      case stream::SignatureWorkSource::Step::kProcessed:
        ++pick->processed;
        pick->has_work = true;  // a stream that yielded a frame likely has more
        break;
      case stream::SignatureWorkSource::Step::kIdle:
        break;  // leave has_work as a racing notify may have set it
      case stream::SignatureWorkSource::Step::kFinished:
        if (!pick->finished) {
          pick->finished = true;
          if (!pick->finish_reported) {
            pick->finish_reported = true;
            report = true;
            index = pick->tenant_index;
          }
        }
        work_cv_.notify_all();
        break;
    }
    if (report) {
      lock.unlock();
      ReportFinished(index);
      lock.lock();
    }
  }
}

std::vector<uint64_t> FairDispatcher::ProcessedCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t max_index = 0;
  for (const auto& s : slots_) {
    if (static_cast<size_t>(s->tenant_index) + 1 > max_index) {
      max_index = static_cast<size_t>(s->tenant_index) + 1;
    }
  }
  std::vector<uint64_t> counts(max_index, 0);
  for (const auto& s : slots_) {
    counts[s->tenant_index] += s->processed;
  }
  return counts;
}

}  // namespace farm
}  // namespace vdb
