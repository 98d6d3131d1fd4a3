#include "core/kernels/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "core/kernels/kernel_ops.h"
#include "util/logging.h"

namespace vdb {
namespace {

// Every dispatch level, ascending.
constexpr SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2};

bool HostSupports(SimdLevel level) {
#if defined(__x86_64__) || defined(__i386__)
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2");
  }
  return false;
#else
  return level == SimdLevel::kScalar;
#endif
}

const kernels::KernelOps* OpsForLevel(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kernels::kScalarOps;
    case SimdLevel::kAvx2:
#ifdef VDB_KERNELS_HAVE_AVX2
      return &kernels::kAvx2Ops;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool IsAvailable(SimdLevel level) {
  return OpsForLevel(level) != nullptr && HostSupports(level);
}

// Initial selection, run once under the magic-static guard of State():
// best available level, overridden by a valid VDB_SIMD.
SimdLevel InitialLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* env = std::getenv("VDB_SIMD");
  if (env != nullptr && *env != '\0') {
    Result<SimdLevel> parsed = ParseSimdLevel(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "vdb: ignoring VDB_SIMD='%s' (want scalar or avx2); "
                   "using %s\n",
                   env, SimdLevelName(level));
    } else if (!IsAvailable(*parsed)) {
      std::fprintf(stderr,
                   "vdb: VDB_SIMD=%s is not available on this host/build; "
                   "using %s\n",
                   env, SimdLevelName(level));
    } else {
      level = *parsed;
    }
  }
  return level;
}

// The single atomic the hot paths read. The level is recovered from the
// table pointer (one pointer, never a torn level/ops pair).
std::atomic<const kernels::KernelOps*>& State() {
  static std::atomic<const kernels::KernelOps*> ops{
      OpsForLevel(InitialLevel())};
  return ops;
}

}  // namespace

namespace kernels {

const KernelOps& ActiveOps() {
  return *State().load(std::memory_order_relaxed);
}

}  // namespace kernels

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<SimdLevel> ParseSimdLevel(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  return Status::InvalidArgument("unknown SIMD level '" + name +
                                 "' (want scalar or avx2)");
}

const std::vector<SimdLevel>& AvailableSimdLevels() {
  static const std::vector<SimdLevel> levels = [] {
    std::vector<SimdLevel> out;
    for (SimdLevel level : kLevels) {
      if (IsAvailable(level)) out.push_back(level);
    }
    return out;
  }();
  return levels;
}

SimdLevel DetectedSimdLevel() { return AvailableSimdLevels().back(); }

SimdLevel ActiveSimdLevel() {
  const kernels::KernelOps* ops = State().load(std::memory_order_relaxed);
  for (SimdLevel level : kLevels) {
    if (ops == OpsForLevel(level)) return level;
  }
  VDB_CHECK(false) << "active kernel table matches no dispatch level";
  return SimdLevel::kScalar;
}

Status SetSimdLevel(SimdLevel level) {
  const kernels::KernelOps* ops = OpsForLevel(level);
  if (ops == nullptr) {
    return Status::InvalidArgument(
        std::string("SIMD level ") + SimdLevelName(level) +
        " is not compiled into this binary");
  }
  if (!HostSupports(level)) {
    return Status::InvalidArgument(std::string("SIMD level ") +
                                   SimdLevelName(level) +
                                   " is not supported by this CPU");
  }
  State().store(ops, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace vdb
