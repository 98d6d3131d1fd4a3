// vdbperf: the repository's end-to-end benchmark, one workload per run.
//
//   vdbperf --workload ingest_live|query_direct|query_routed --seed N
//           --seconds S --trace 0|1 [--scale F] [--work-dir DIR]
//
// Prints a context line and, last, one JSON object with exactly the keys
// correct / attempted / failed / metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (plus a span file) with --trace 1.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "core/kernels/simd.h"
#include "layers.h"

namespace {

using vdbperf::RunOptions;
using vdbperf::RunResult;

[[noreturn]] void Usage(const char* why) {
  std::cerr << "vdbperf: " << why
            << "\nusage: vdbperf --workload ingest_live|query_direct|"
               "query_routed --seed N --seconds S --trace 0|1 [--scale F] "
               "[--work-dir DIR] [--corrupt N]\n";
  std::exit(64);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--corrupt") {
      options.corrupt_answer = std::strtol(value.c_str(), &end, 10);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (options.seconds <= 0 || options.scale <= 0 || options.scale > 1) {
    Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  return options;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "vdbperf: refusing to run from a Debug-class build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  RunOptions options = ParseArgs(argc, argv);
  RunResult result;
  bool ran = false;
  if (options.workload == "ingest_live") {
    ran = vdbperf::RunIngestLive(options, &result);
  } else if (options.workload == "query_direct") {
    ran = vdbperf::RunQuery(options, /*routed=*/false, &result);
  } else if (options.workload == "query_routed") {
    ran = vdbperf::RunQuery(options, /*routed=*/true, &result);
  } else {
    Usage("unknown workload");
  }
  if (!ran) {
    std::cerr << "vdbperf: set-up failed\n";
    return 1;
  }

  result.context["workload"] = options.workload;
  result.context["seed"] = std::to_string(options.seed);
  result.context["seconds"] = std::to_string(options.seconds);
  result.context["scale"] = std::to_string(options.scale);
  result.context["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result.context["build_type"] = "release";
  result.context["simd"] = vdb::SimdLevelName(vdb::ActiveSimdLevel());
  result.context["trace"] = options.trace ? "1" : "0";
  if (options.trace) {
    std::string path = options.work_dir + "/spans-" + options.workload +
                       "-" + std::to_string(options.seed) + ".json";
    if (!vdbperf::Tracer::Get().WriteJson(path)) {
      std::cerr << "vdbperf: cannot write " << path << "\n";
      return 1;
    }
    result.context["span_file"] = path;
    result.context["spans"] = std::to_string(vdbperf::Tracer::Get().size());
  }
  for (const std::string& why : result.failures) {
    std::cerr << "vdbperf: FAILED op: " << why << "\n";
  }

  std::ostringstream context;
  context << "{\"context\": {";
  bool first = true;
  for (const auto& [key, value] : result.context) {
    context << (first ? "" : ", ") << JsonString(key) << ": "
            << JsonString(value);
    first = false;
  }
  context << "}}";
  std::cout << context.str() << "\n";

  const std::vector<std::string>& names =
      options.trace ? vdbperf::PerLayerMetricNames()
                    : vdbperf::EndToEndMetricNames();
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": "
      << (result.failed == 0 && result.attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = result.metrics.find(names[i]);
    if (it == result.metrics.end() || !std::isfinite(it->second.value)) {
      std::cerr << "vdbperf: metric " << names[i] << " missing\n";
      return 1;
    }
    out << (i ? ", " : "") << JsonString(names[i]) << ": {\"value\": "
        << it->second.value << ", \"unit\": " << JsonString(it->second.unit)
        << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
