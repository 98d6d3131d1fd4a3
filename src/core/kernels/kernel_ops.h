#ifndef VDB_CORE_KERNELS_KERNEL_OPS_H_
#define VDB_CORE_KERNELS_KERNEL_OPS_H_

#include <cstdint>

#include "video/pixel.h"

// Internal seam between the kernel drivers (core/kernels/kernels.cc) and
// the per-ISA translation units. Each dispatch level (scalar, and AVX2
// where it is compiled in) provides one KernelOps table;
// core/kernels/simd.cc owns the level selection and hands the hot paths a
// table through ActiveOps(). Not installed as public API — include
// core/kernels.h (kernels) or core/kernels/simd.h (dispatch) instead.
//
// Contract shared by every implementation, enforced per level by
// kernels_simd_test:
//  * byte-identical output to the scalar loops below for every input,
//  * no alignment requirements on any pointer (misaligned-safe),
//  * no reads past the documented extents (tail widths below the vector
//    width fall back to the scalar loops).

namespace vdb {
namespace kernels {

struct KernelOps {
  // One vertical [1 4 6 4 1]/16 reduction level over planar rows: `in`
  // holds `in_rows` rows of `width` bytes; writes (in_rows - 3) / 2 rows
  // to `out`. in_rows >= 5; in and out do not overlap.
  void (*reduce_rows_once)(const uint8_t* in, int width, int in_rows,
                           uint8_t* out);

  // One in-place horizontal [1 4 6 4 1]/16 level on a single row: output
  // i draws from row[2i..2i+4], n >= 5 reduces to (n - 3) / 2 values.
  void (*reduce_row_inplace)(uint8_t* row, int n);

  // AoS PixelRGB[n] -> three planar byte arrays.
  void (*deinterleave_rgb)(const PixelRGB* src, int n, uint8_t* r,
                           uint8_t* g, uint8_t* b);

  // Writes m[i] = 1 if max(|ar[i]-br[i]|, |ag[i]-bg[i]|, |ab[i]-bb[i]|)
  // <= tol else 0, for i in [0, overlap); returns the number of ones.
  // m does not overlap the inputs.
  int (*match_mask_total)(const uint8_t* ar, const uint8_t* ag,
                          const uint8_t* ab, const uint8_t* br,
                          const uint8_t* bg, const uint8_t* bb, int overlap,
                          uint8_t tol, uint8_t* m);
};

extern const KernelOps kScalarOps;
#ifdef VDB_KERNELS_HAVE_AVX2
extern const KernelOps kAvx2Ops;
#endif

// The table for the currently active dispatch level: one relaxed atomic
// load. Hot paths load it once per kernel invocation.
const KernelOps& ActiveOps();

// ---------------------------------------------------------------------------
// Scalar bodies, inline so the vector TU compiles its own tail copies
// under its own ISA flags. These ARE the PR-5 kernels: kScalarOps wraps
// them verbatim (compiled at -O3 in scalar.cc, where GCC's loop vectorizer
// still auto-vectorizes them to baseline SSE2 — the "scalar" level means
// no hand-written vectors and no post-SSE2 instructions, not no SIMD).

// (p0 + 4*p1 + 6*p2 + 4*p3 + p4 + 8) >> 4 — max sum 16*255 + 8 = 4088, so
// unsigned never overflows and the result is always a valid byte.
inline uint8_t Reduce5(unsigned p0, unsigned p1, unsigned p2, unsigned p3,
                       unsigned p4) {
  return static_cast<uint8_t>((p0 + p4 + 4u * (p1 + p3) + 6u * p2 + 8u) >> 4);
}

inline uint8_t AbsDiffU8(uint8_t x, uint8_t y) {
  return x > y ? static_cast<uint8_t>(x - y) : static_cast<uint8_t>(y - x);
}

inline void ReduceRowsOnceScalar(const uint8_t* in, int width, int in_rows,
                                 uint8_t* out) {
  int out_rows = (in_rows - 3) / 2;
  for (int i = 0; i < out_rows; ++i) {
    const uint8_t* r0 = in + static_cast<size_t>(2 * i) * width;
    const uint8_t* r1 = r0 + width;
    const uint8_t* r2 = r1 + width;
    const uint8_t* r3 = r2 + width;
    const uint8_t* r4 = r3 + width;
    uint8_t* o = out + static_cast<size_t>(i) * width;
    for (int x = 0; x < width; ++x) {
      o[x] = Reduce5(r0[x], r1[x], r2[x], r3[x], r4[x]);
    }
  }
}

// In-place is safe forward: out i writes index i, reads 2i..2i+4, and
// i <= 2i for i >= 0, so a write never clobbers a value a later (or the
// current) window still needs.
inline void ReduceRowInPlaceScalar(uint8_t* row, int n) {
  int out = (n - 3) / 2;
  for (int i = 0; i < out; ++i) {
    const uint8_t* p = row + 2 * i;
    row[i] = Reduce5(p[0], p[1], p[2], p[3], p[4]);
  }
}

inline void DeinterleaveRgbScalar(const PixelRGB* src, int n, uint8_t* r,
                                  uint8_t* g, uint8_t* b) {
  for (int i = 0; i < n; ++i) {
    const PixelRGB& p = src[i];
    r[i] = p.r;
    g[i] = p.g;
    b[i] = p.b;
  }
}

inline int MatchMaskTotalScalar(const uint8_t* ar, const uint8_t* ag,
                                const uint8_t* ab, const uint8_t* br,
                                const uint8_t* bg, const uint8_t* bb,
                                int overlap, uint8_t tol, uint8_t* m) {
  int total = 0;
  for (int i = 0; i < overlap; ++i) {
    uint8_t dr = AbsDiffU8(ar[i], br[i]);
    uint8_t dg = AbsDiffU8(ag[i], bg[i]);
    uint8_t db = AbsDiffU8(ab[i], bb[i]);
    uint8_t d2 = dr > dg ? dr : dg;
    uint8_t dm = d2 > db ? d2 : db;
    uint8_t hit = dm <= tol ? 1 : 0;
    m[i] = hit;
    total += hit;
  }
  return total;
}

}  // namespace kernels
}  // namespace vdb

#endif  // VDB_CORE_KERNELS_KERNEL_OPS_H_
