// Shared plumbing of the vdbperf harness: clocks, sample statistics, the
// metric sink, process probes (/proc/self), the thread-budget guard and the
// in-memory span recorder.
#ifndef VDBPERF_COMMON_H_
#define VDBPERF_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vdbperf {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// A timed sample: when it completed, and its value.
struct Sample {
  int64_t at_ns = 0;
  double value = 0.0;
};

std::vector<double> Values(const std::vector<Sample>& samples);

// Everything one run learned, by metric name, plus its identity.
struct RunResult {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;  // printed as strings
  long attempted = 0;
  long failed = 0;
  // The first few failed ops, printed on stderr.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one failed op; safe from any thread.
  void Fail(const std::string& why);

 private:
  std::mutex fail_mu_;  // guards failed and failures while threads run
};

// Options every workload reads.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corpus scale in (0, 1]: 1 is the benchmark, smaller is the smoke test.
  double scale = 1.0;
  // Where rendered base clips are cached and run artefacts are written.
  std::string work_dir = ".bench_build/vdbperf";
  // Smoke-test hook: the n-th answer checked (1-based) is corrupted before
  // the oracle sees it, so the harness must count it failed. 0 = off.
  long corrupt_answer = 0;
};

// VmHWM from /proc/self/status in MB (0 when unreadable).
double PeakRssMb();
// Resets VmHWM to the current RSS (Linux /proc/self/clear_refs "5"), so the
// next PeakRssMb() covers only what follows. False when not permitted.
bool ResetPeakRss();

// Samples, on its own thread until destroyed and ten times a second, the
// process's thread count (/proc/self/status) and the host's "steal" counter
// (/proc/stat): the CPU time the hypervisor gave to other guests while this
// one wanted to run. Steal is reported beside the figures, never used to
// pick samples.
class HostSampler {
 public:
  HostSampler();
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  int threads_peak() const { return threads_peak_.load(); }
  // Share (%) of all CPU time stolen by the hypervisor over [from, to).
  double StealPercent(int64_t from_ns, int64_t to_ns) const;

 private:
  struct Point {
    int64_t at_ns = 0;
    long long steal = 0;
    long long total = 0;
  };
  void Record();

  mutable std::mutex mu_;  // guards points_
  std::vector<Point> points_;
  std::atomic<bool> stop_{false};
  std::atomic<int> threads_peak_{0};
  std::thread thread_;  // last: it uses the members above
};

// The load generator's own budget: generator threads plus client
// connections must fit the cores, or the bench would measure its own
// oversubscription. The HostSampler, asleep but for a /proc read every
// 100 ms, is not counted. Exits the process (status 2) when violated.
void RequireThreadBudget(const char* workload, int generator_threads,
                         int connections);

// Spans around every call the harness makes into a layer. Disabled (the
// default) a Scope costs one relaxed load; enabled, spans are appended to an
// in-memory vector and written out once when the run ends.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // spans of one request share this id
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  size_t size() const;
  // Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

  // RAII span: records [construction, destruction) when tracing is on.
  class Scope {
   public:
    Scope(const char* name, uint64_t request = 0, uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return span_.id; }

   private:
    Span span_;
    bool on_ = false;
  };

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// The workloads. Each fills `result` and returns false only on a set-up
// failure that leaves nothing to report.
bool RunIngestLive(const RunOptions& options, RunResult* result);
bool RunQuery(const RunOptions& options, bool routed, RunResult* result);

}  // namespace vdbperf

#endif  // VDBPERF_COMMON_H_
