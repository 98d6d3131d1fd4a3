#ifndef VDB_CORE_KERNELS_SIMD_H_
#define VDB_CORE_KERNELS_SIMD_H_

#include <string>
#include <vector>

#include "util/result.h"

namespace vdb {

// Runtime SIMD dispatch for the signature kernels (core/kernels.h).
//
// The hot loops — the [1 4 6 4 1]/16 row reduce, the AoS->planar
// deinterleave, and the per-shift match mask — exist in two variants: the
// scalar reference and one hand-written vector level, compiled in separate
// translation units with per-file ISA flags
// (src/core/kernels/{scalar,avx2}.cc). The CPU is probed once, AVX2 is
// selected when it is compiled in and supported, and each kernel
// invocation pays exactly one indirect call through a per-kernel function
// pointer table. A host without AVX2 runs the scalar level, which GCC still
// auto-vectorizes to SSE2.
//
// Every variant is **byte-identical** to the scalar reference: the kernels
// are pure fixed-point integer arithmetic (the fixed-point math itself is
// proven exact against the double reference in kernels_test), so widening
// the loop from 1 to 16 or 32 lanes changes the schedule, never a byte.
// tests/core/kernels_simd_test.cc forces each available level and re-runs
// the bit-exactness battery; scripts/check.sh's `simd` leg does the same
// under ASan via the VDB_SIMD override.
//
// Override order: SetSimdLevel() (tests, benches) beats the VDB_SIMD
// environment variable ("scalar", "avx2"; read once at first kernel use)
// beats CPUID auto-detection. An unknown or unsupported VDB_SIMD value is
// ignored with a one-time warning on stderr.

// Dispatch levels, ascending. The values are stable identifiers (test
// names print them); 1 belonged to a retired 128-bit level and stays
// unused.
enum class SimdLevel { kScalar = 0, kAvx2 = 2 };

// "scalar", "avx2".
const char* SimdLevelName(SimdLevel level);

// Inverse of SimdLevelName; kInvalidArgument on anything else.
Result<SimdLevel> ParseSimdLevel(const std::string& name);

// Levels this binary can actually run — compiled in AND supported by the
// host CPU — in ascending order. Always contains kScalar.
const std::vector<SimdLevel>& AvailableSimdLevels();

// The best available level: what dispatch selects absent any override.
SimdLevel DetectedSimdLevel();

// The level the kernels currently dispatch to.
SimdLevel ActiveSimdLevel();

// Forces dispatch to `level` until the next call. kInvalidArgument when
// the level is not available on this host/build (dispatch is unchanged).
// Not meant for concurrent use with in-flight kernels: switching is safe
// (every level computes identical bytes) but benchmarks would misattribute
// the overlap.
Status SetSimdLevel(SimdLevel level);

}  // namespace vdb

#endif  // VDB_CORE_KERNELS_SIMD_H_
