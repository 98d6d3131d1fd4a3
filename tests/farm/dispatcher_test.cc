// Deterministic unit tests of the farm's weighted round-robin dispatcher,
// using scripted work sources that always have work. With a single worker
// and no pipeline behind the sources, the service ratio is
// a pure function of the weights — this is where the 3:1 scheduling claim
// is proven exactly (the end-to-end farm test only asserts the weaker,
// machine-load-robust bounds).

#include "farm/dispatcher.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stream/dispatch.h"
#include "util/status.h"

namespace vdb {
namespace farm {
namespace {

// Always has work: kProcessed for the first `limit` calls, then kFinished.
// The call that brings processed() to `limit` wakes WaitProcessed().
class ScriptedSource : public stream::SignatureWorkSource {
 public:
  explicit ScriptedSource(uint64_t limit) : limit_(limit) {}

  Step ProcessOne(PyramidWorkspace*) override {
    const uint64_t n = calls_.fetch_add(1);
    if (n + 1 == limit_) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
    return n < limit_ ? Step::kProcessed : Step::kFinished;
  }

  uint64_t processed() const { return std::min(calls_.load(), limit_); }

  // Blocks until processed() has reached `limit`.
  void WaitProcessed() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return processed() == limit_; });
  }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> calls_{0};
  std::mutex mu_;
  std::condition_variable done_cv_;
};

// Never has a frame ready; counts how often it was polled.
class IdleSource : public stream::SignatureWorkSource {
 public:
  Step ProcessOne(PyramidWorkspace*) override {
    polls_.fetch_add(1);
    return Step::kIdle;
  }

  uint64_t polls() const { return polls_.load(); }

 private:
  std::atomic<uint64_t> polls_{0};
};

TEST(FairDispatcherTest, WeightsShapeServiceRatioDeterministically) {
  FairDispatcher dispatcher;

  // Snapshot the per-tenant processed counts the instant the heavy tenant
  // finishes: with weights 3:1 and both tenants always ready, the light
  // tenant must have received ~1/3 of the heavy tenant's service.
  std::mutex snapshot_mu;
  std::vector<uint64_t> at_heavy_finish;
  dispatcher.finished_callback = [&](int tenant_index) {
    std::lock_guard<std::mutex> lock(snapshot_mu);
    if (tenant_index == 0 && at_heavy_finish.empty()) {
      at_heavy_finish = dispatcher.ProcessedCounts();
    }
  };

  stream::SignatureDispatcher* heavy = dispatcher.AddTenant(0, /*weight=*/3);
  stream::SignatureDispatcher* light = dispatcher.AddTenant(1, /*weight=*/1);
  ScriptedSource heavy_source(300);
  ScriptedSource light_source(300);
  ASSERT_TRUE(heavy->Attach(&heavy_source).ok());
  ASSERT_TRUE(light->Attach(&light_source).ok());

  std::thread worker([&] { dispatcher.RunWorker(); });
  heavy_source.WaitProcessed();
  light_source.WaitProcessed();
  heavy->Detach(&heavy_source);
  light->Detach(&light_source);
  dispatcher.Close();
  worker.join();

  std::lock_guard<std::mutex> lock(snapshot_mu);
  ASSERT_EQ(at_heavy_finish.size(), 2u);
  EXPECT_EQ(at_heavy_finish[0], 300u);
  // Exactly 3:1 up to round-boundary effects: 300 heavy steps buy the
  // light tenant ~100, never parity and never starvation.
  EXPECT_GE(at_heavy_finish[1], 80u);
  EXPECT_LE(at_heavy_finish[1], 120u);

  const std::vector<uint64_t> final_counts = dispatcher.ProcessedCounts();
  ASSERT_EQ(final_counts.size(), 2u);
  EXPECT_EQ(final_counts[0], 300u);
  EXPECT_EQ(final_counts[1], 300u);
}

TEST(FairDispatcherTest, IdleTenantDoesNotStallABusyOne) {
  FairDispatcher::Options options;
  options.idle_repoll_micros = 200;
  FairDispatcher dispatcher(options);

  stream::SignatureDispatcher* busy = dispatcher.AddTenant(0, 1);
  stream::SignatureDispatcher* idle = dispatcher.AddTenant(1, 1);
  ScriptedSource busy_source(50);
  IdleSource idle_source;
  ASSERT_TRUE(busy->Attach(&busy_source).ok());
  ASSERT_TRUE(idle->Attach(&idle_source).ok());

  std::thread worker([&] { dispatcher.RunWorker(); });
  busy_source.WaitProcessed();
  busy->Detach(&busy_source);
  idle->Detach(&idle_source);
  dispatcher.Close();
  worker.join();

  const std::vector<uint64_t> counts = dispatcher.ProcessedCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 50u);
  // kIdle steps are not "processed" service.
  EXPECT_EQ(counts[1], 0u);
}

TEST(FairDispatcherTest, DetachReportsAFinisherTheWorkersNeverSaw) {
  // A stream whose finalize tail outruns the next worker poll detaches
  // before any worker observes kFinished; Detach itself must report it so
  // fairness snapshots never miss a finisher. No worker thread at all
  // makes this exact.
  FairDispatcher dispatcher;
  std::vector<int> reported;
  dispatcher.finished_callback = [&](int tenant_index) {
    reported.push_back(tenant_index);
  };

  stream::SignatureDispatcher* handle = dispatcher.AddTenant(7, 2);
  ScriptedSource source(0);
  ASSERT_TRUE(handle->Attach(&source).ok());
  handle->Detach(&source);

  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0], 7);

  // A second detach of the same source is a no-op, not a double report.
  handle->Detach(&source);
  EXPECT_EQ(reported.size(), 1u);
  dispatcher.Close();
}

TEST(FairDispatcherTest, AttachAfterCloseIsRefused) {
  FairDispatcher dispatcher;
  stream::SignatureDispatcher* handle = dispatcher.AddTenant(0, 1);
  dispatcher.Close();
  ScriptedSource source(1);
  const Status status = handle->Attach(&source);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace farm
}  // namespace vdb
