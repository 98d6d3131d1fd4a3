#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace vdbperf {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.value);
  return values;
}

void RunResult::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

// The numeric field `key` of /proc/self/status (kB for memory), or -1.
long StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t key_len = std::string(key).size();
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtol(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

double PeakRssMb() {
  long kb = StatusField("VmHWM");
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

HostSampler::HostSampler()
    : thread_([this] {
        while (!stop_.load()) {
          Record();
          for (int slept = 0; slept < 10 && !stop_.load(); ++slept) {
            usleep(10'000);
          }
        }
        Record();
      }) {}

HostSampler::~HostSampler() {
  stop_.store(true);
  thread_.join();
}

void HostSampler::Record() {
  long threads = StatusField("Threads");
  int seen = threads_peak_.load();
  while (threads > seen && !threads_peak_.compare_exchange_weak(
                               seen, static_cast<int>(threads))) {
  }
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  Point point;
  point.at_ns = NowNs();
  long long value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    point.total += value;
    if (field == 7) point.steal = value;
  }
  std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(point);
}

double HostSampler::StealPercent(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.empty()) return 0.0;
  // The last reading at or before `from`, the first at or after `to`.
  auto after_from = std::upper_bound(
      points_.begin(), points_.end(), from_ns,
      [](int64_t t, const Point& p) { return t < p.at_ns; });
  const Point& a = after_from == points_.begin() ? points_.front()
                                                 : *(after_from - 1);
  auto at_to = std::lower_bound(
      points_.begin(), points_.end(), to_ns,
      [](const Point& p, int64_t t) { return p.at_ns < t; });
  const Point& b = at_to == points_.end() ? points_.back() : *at_to;
  long long total = b.total - a.total;
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

void RequireThreadBudget(const char* workload, int generator_threads,
                         int connections) {
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (generator_threads + connections > cores) {
    std::cerr << "vdbperf " << workload << ": load generator needs "
              << generator_threads << " threads + " << connections
              << " connections > nproc " << cores << "\n";
    std::exit(2);
  }
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"clock\": \"steady_clock ns\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Tracer::Scope::Scope(const char* name, uint64_t request, uint64_t parent) {
  Tracer& tracer = Tracer::Get();
  on_ = tracer.enabled();
  if (!on_) return;
  span_.id = tracer.NextId();
  span_.parent = parent;
  span_.request = request == 0 ? span_.id : request;
  span_.name = name;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (!on_) return;
  span_.end_ns = NowNs();
  Tracer::Get().Record(span_);
}

}  // namespace vdbperf
