#ifndef VDB_CORE_KERNELS_H_
#define VDB_CORE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "core/extractor.h"
#include "core/geometry.h"
#include "core/pyramid.h"
#include "util/result.h"
#include "video/frame.h"

namespace vdb {

// Allocation-free, cache-friendly kernels for the signature hot path.
//
// Every downstream technique (SBD, scene trees, variance indexing) consumes
// the per-frame Figure-3 reduction, so this is the one path whose cost
// multiplies by every ingested frame. The reference implementation
// (pyramid.h + ComputeFrameSignatureReference below) materialises two
// intermediate Frames per area, gathers every column into a fresh
// Signature and reduces it with scalar double arithmetic — ~10^3 heap
// allocations per frame. The kernels here produce **byte-identical**
// output from flat reused buffers:
//
//  * PyramidWorkspace owns all scratch, sized once per frame geometry;
//    in steady state (same geometry, warmed output vector) a frame is
//    reduced with zero heap allocations.
//  * Area extraction is fused: the TBA rotation (geometry.h) and the
//    nearest-neighbour resample collapse into precomputed gather maps that
//    read the source Frame exactly once per output pixel, straight into
//    planar (SoA) channel buffers — no intermediate Frame objects.
//  * The [1 4 6 4 1]/16 reduction runs in fixed point over contiguous
//    rows: out = (p0 + 4*p1 + 6*p2 + 4*p3 + p4 + 8) >> 4. This is exact,
//    not approximate — every kernel weight is a multiple of 2^-4, so the
//    reference double-precision sum is computed without rounding error and
//    equals S/16 for the integer S above; std::lround's round-half-up then
//    coincides with (S + 8) >> 4 (both operands are non-negative and the
//    result never exceeds 255). The whole image reduces one *level* at a
//    time by sweeping rows (not gathering columns), so loads are
//    contiguous and the inner loops vectorize.
//  * The hot loops (row reduce, deinterleave, per-shift match mask)
//    dispatch at runtime to a hand-written AVX2 variant or the scalar
//    reference (core/kernels/simd.h: CPUID probe once, per-kernel function
//    pointers, VDB_SIMD / SetSimdLevel override). Both levels compute
//    identical fixed-point integer math, so the output bytes never depend
//    on the selected level — only the schedule does.
//
// The bit-exactness contract is enforced by kernels_test (property tests
// over randomized geometries plus all 22 Table-5 presets end to end), by
// kernels_simd_test (the same battery forced onto every available dispatch
// level, plus misaligned and tail-width cases), and by the fast
// `ctest -L kernels` and per-level `simd` legs of scripts/check.sh.

// One reduction level over planar rows: `in` holds `in_rows` rows of
// `width` bytes each; writes (in_rows - 3) / 2 rows to `out`. Requires
// in_rows to be a size-set element >= 5; in and out must not overlap.
// Exposed for tests and benches; production code uses PyramidWorkspace.
void ReduceRowsOnce(const uint8_t* in, int width, int in_rows, uint8_t* out);

// Per-thread scratch for the optimized signature path. Not thread-safe:
// give each worker its own instance (a workspace is a few tens of KB).
// Buffers grow to fit the largest geometry seen and are never shrunk, so
// ingesting a homogeneous corpus settles into zero allocations per frame.
class PyramidWorkspace {
 public:
  PyramidWorkspace() = default;
  PyramidWorkspace(const PyramidWorkspace&) = delete;
  PyramidWorkspace& operator=(const PyramidWorkspace&) = delete;

  // Fills *out with the Figure-3 reduction of `frame` under `geom`,
  // byte-identical to ComputeFrameSignatureReference. Reuses out's
  // signature_ba storage when its capacity suffices; performs no other
  // heap allocation once the workspace has seen this geometry.
  Status ComputeInto(const Frame& frame, const AreaGeometry& geom,
                     FrameSignature* out);

  // Convenience wrapper returning a fresh FrameSignature.
  Result<FrameSignature> Compute(const Frame& frame, const AreaGeometry& geom);

  // Number of times Prepare() re-derived maps and (re)grew buffers — one
  // per distinct geometry change, constant in steady state. Test hook for
  // the zero-allocation contract.
  long prepare_count() const { return prepare_count_; }

  // Total scratch bytes currently reserved across all internal buffers.
  size_t scratch_bytes() const;

 private:
  // (Re)builds gather maps and sizes buffers for `geom`; no-op when the
  // geometry matches the cached one.
  void Prepare(const AreaGeometry& geom);

  // Gathers an area into the planar buffers (w rows of l bytes for the
  // TBA, h rows of b for the FOA) and reduces it vertically level by
  // level, leaving a single row of `width` bytes per channel; returns
  // pointers to those rows via the members below.
  void GatherTba(const Frame& frame);
  void GatherFoa(const Frame& frame);
  void ReducePlanesToLine(int width, int rows);

  // Reduces the single `width`-byte row left by ReducePlanesToLine down to
  // one pixel (in-place horizontal sweeps, same per-level rounding).
  PixelRGB ReduceLineRowToPixel(int width);

  // Cached geometry (all fields participate: the estimates drive the
  // gather maps, the snapped values the buffer sizes).
  AreaGeometry geom_;
  bool has_geom_ = false;
  long prepare_count_ = 0;

  // Fused gather maps. src_index(x, y) = base[x] + stride[x] * row_of[y]
  // covers all three TBA strip segments (rotated left column, top bar,
  // rotated right column) and, for the FOA, the crop offset.
  std::vector<int> tba_base_, tba_stride_, tba_row_;
  std::vector<int> foa_base_, foa_row_;

  // Planar channel scratch: ping/pong pairs so a reduction level never
  // reads the rows it writes.
  std::vector<uint8_t> ping_r_, ping_g_, ping_b_;
  std::vector<uint8_t> pong_r_, pong_g_, pong_b_;
  // After ReducePlanesToLine: the buffers holding the final row.
  const uint8_t* line_r_ = nullptr;
  const uint8_t* line_g_ = nullptr;
  const uint8_t* line_b_ = nullptr;
  // Scratch row for the horizontal sign reduction.
  std::vector<uint8_t> sign_r_, sign_g_, sign_b_;
};

// The retained reference path: extract + resample via intermediate Frames,
// reduce columns with double arithmetic (pyramid.h). The optimized path is
// tested byte-identical against this; benches report the speedup over it.
Result<FrameSignature> ComputeFrameSignatureReference(const Frame& frame,
                                                      const AreaGeometry& geom);

// Optimized Stage-3 shift match: identical result to
// BestShiftMatchScoreReference (the score is the order-independent maximum
// run over all shifts), but shifts are visited in decreasing-overlap order
// and pruned once the remaining overlap cannot beat the best run, the
// per-shift match mask is precomputed into a flat buffer the compiler can
// vectorize, and the run scan bails when the unseen suffix is too short to
// matter. Uses a per-thread mask buffer: zero allocations in steady state.
double BestShiftMatchScoreKernel(const Signature& a, const Signature& b,
                                 int tolerance);

// The original O(n^2) scalar loop, retained for equivalence tests.
double BestShiftMatchScoreReference(const Signature& a, const Signature& b,
                                    int tolerance);

}  // namespace vdb

#endif  // VDB_CORE_KERNELS_H_
