// AVX2 dispatch level, the one hand-written vector level. Compiled with
// -mavx2 in its own translation unit; only reached when CPUID reports AVX2
// (core/kernels/simd.cc). Hosts without AVX2 run the scalar level.
//
// Same fixed-point math as the scalar level, so the output is
// byte-identical; only the schedule changes. The row reduces use 32 byte
// lanes (16 u16 lanes where the 5-tap sum needs headroom); deinterleave
// and the shift-match mask use VEX-encoded 128-bit lanes (reasons at each
// function). All loads unaligned; tails use an overlapped final
// vector where outputs are pure and non-aliasing (recomputing the same
// bytes is exact), the inline scalar bodies elsewhere.

#include "core/kernels/kernel_ops.h"

#ifdef VDB_KERNELS_HAVE_AVX2

#include <immintrin.h>

namespace vdb {
namespace kernels {
namespace {

// pmaddubsw tap coefficients. maddubs(x, 0x0401) computes
// x[2j]*1 + x[2j+1]*4 per u16 lane (the low constant byte multiplies the
// even source byte), maddubs(x, 0x0406) computes x[2j]*6 + x[2j+1]*4.
// Both partial sums (max 1275 and 2550) and the full 5-tap sum (max 4088)
// fit i16 with no saturation, so the math stays exact.
constexpr int16_t kCoef14 = 0x0401;
constexpr int16_t kCoef64 = 0x0406;

// One 32-byte column slab of the vertical 5-tap at byte offset x.
// unpacklo/hi interleave within each 128-bit lane and packus_epi16
// re-packs within each lane, so the pair is its own inverse — unlike the
// widen-with-cvtepu8 formulation, no cross-lane permute is needed.
inline void ReduceColumns32(const uint8_t* r0, const uint8_t* r1,
                            const uint8_t* r2, const uint8_t* r3,
                            const uint8_t* r4, uint8_t* o, int x) {
  const __m256i c14 = _mm256_set1_epi16(kCoef14);
  const __m256i c64 = _mm256_set1_epi16(kCoef64);
  const __m256i bias = _mm256_set1_epi16(8);
  const __m256i zero = _mm256_setzero_si256();
  __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + x));
  __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + x));
  __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r2 + x));
  __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r3 + x));
  __m256i v4 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r4 + x));
  // Interleaving rows 0/1 and 2/3 pairs each output column's taps into
  // adjacent bytes: one maddubs per pair computes p0 + 4*p1 and
  // 6*p2 + 4*p3 for eight columns at once.
  __m256i lo = _mm256_add_epi16(
      _mm256_maddubs_epi16(_mm256_unpacklo_epi8(v0, v1), c14),
      _mm256_maddubs_epi16(_mm256_unpacklo_epi8(v2, v3), c64));
  lo = _mm256_add_epi16(lo, _mm256_unpacklo_epi8(v4, zero));
  lo = _mm256_srli_epi16(_mm256_add_epi16(lo, bias), 4);
  __m256i hi = _mm256_add_epi16(
      _mm256_maddubs_epi16(_mm256_unpackhi_epi8(v0, v1), c14),
      _mm256_maddubs_epi16(_mm256_unpackhi_epi8(v2, v3), c64));
  hi = _mm256_add_epi16(hi, _mm256_unpackhi_epi8(v4, zero));
  hi = _mm256_srli_epi16(_mm256_add_epi16(hi, bias), 4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + x),
                      _mm256_packus_epi16(lo, hi));
}

void ReduceRowsOnceAvx2(const uint8_t* in, int width, int in_rows,
                        uint8_t* out) {
  const int out_rows = (in_rows - 3) / 2;
  for (int i = 0; i < out_rows; ++i) {
    const uint8_t* r0 = in + static_cast<size_t>(2 * i) * width;
    const uint8_t* r1 = r0 + width;
    const uint8_t* r2 = r1 + width;
    const uint8_t* r3 = r2 + width;
    const uint8_t* r4 = r3 + width;
    uint8_t* o = out + static_cast<size_t>(i) * width;
    int x = 0;
    for (; x + 32 <= width; x += 32) {
      ReduceColumns32(r0, r1, r2, r3, r4, o, x);
    }
    if (x < width) {
      if (width >= 32) {
        // Overlapped tail: redo the last full vector instead of a scalar
        // loop. Each output byte is a pure function of the same five input
        // bytes, and out does not alias in, so recomputing a suffix of the
        // previous slab stores identical values.
        ReduceColumns32(r0, r1, r2, r3, r4, o, width - 32);
      } else {
        for (; x < width; ++x) {
          o[x] = Reduce5(r0[x], r1[x], r2[x], r3[x], r4[x]);
        }
      }
    }
  }
}

// Horizontal in-place level, 16 outputs per iteration. Outputs i..i+15
// read row[2i .. 2i+34]; the three 32-byte loads at 2i, 2i+2, 2i+4 expose
// the taps as adjacent byte pairs ready for maddubs and touch up to
// row[2i+35], so the vector path requires 2i+36 <= n. In-place is safe:
// loads precede the store, earlier stores end at i-1 < 2i.
void ReduceRowInPlaceAvx2(uint8_t* row, int n) {
  const int out = (n - 3) / 2;
  const __m256i c14 = _mm256_set1_epi16(kCoef14);
  const __m256i c64 = _mm256_set1_epi16(kCoef64);
  const __m256i bias = _mm256_set1_epi16(8);
  const __m256i lo_mask = _mm256_set1_epi16(0x00FF);
  int i = 0;
  for (; i + 16 <= out && 2 * i + 36 <= n; i += 16) {
    __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 2 * i));
    __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 2 * i + 2));
    __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 2 * i + 4));
    // The stride-2 taps are already adjacent byte pairs of the overlapping
    // loads: maddubs on `a` gives p0 + 4*p1 per output, on `b` (offset 2)
    // gives 6*p2 + 4*p3, and the even bytes of `c` (offset 4) supply p4.
    __m256i s = _mm256_add_epi16(_mm256_maddubs_epi16(a, c14),
                                 _mm256_maddubs_epi16(b, c64));
    s = _mm256_add_epi16(s, _mm256_and_si256(c, lo_mask));
    s = _mm256_srli_epi16(_mm256_add_epi16(s, bias), 4);
    // Within-lane pack leaves the 16 result bytes in 64-bit chunks q0/q2;
    // the permute gathers them into the low 128 bits.
    __m256i packed = _mm256_packus_epi16(s, s);
    packed = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < out; ++i) {
    const uint8_t* p = row + 2 * i;
    row[i] = Reduce5(p[0], p[1], p[2], p[3], p[4]);
  }
}

// 16 pixels = 48 bytes per 128-bit block via three pshufb-gathers per
// channel (VEX-encoded here); the AoS->planar pattern is inherently a
// byte shuffle, and AVX2's cross-lane shuffles buy nothing over two
// 128-bit blocks per iteration.
inline void Deinterleave16(const uint8_t* p, uint8_t* r, uint8_t* g,
                           uint8_t* b) {
  const __m128i m0r = _mm_setr_epi8(0, 3, 6, 9, 12, 15, -1, -1, -1, -1, -1,
                                    -1, -1, -1, -1, -1);
  const __m128i m1r = _mm_setr_epi8(-1, -1, -1, -1, -1, -1, 2, 5, 8, 11, 14,
                                    -1, -1, -1, -1, -1);
  const __m128i m2r = _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                    -1, 1, 4, 7, 10, 13);
  const __m128i m0g = _mm_setr_epi8(1, 4, 7, 10, 13, -1, -1, -1, -1, -1, -1,
                                    -1, -1, -1, -1, -1);
  const __m128i m1g = _mm_setr_epi8(-1, -1, -1, -1, -1, 0, 3, 6, 9, 12, 15,
                                    -1, -1, -1, -1, -1);
  const __m128i m2g = _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                    -1, 2, 5, 8, 11, 14);
  const __m128i m0b = _mm_setr_epi8(2, 5, 8, 11, 14, -1, -1, -1, -1, -1, -1,
                                    -1, -1, -1, -1, -1);
  const __m128i m1b = _mm_setr_epi8(-1, -1, -1, -1, -1, 1, 4, 7, 10, 13, -1,
                                    -1, -1, -1, -1, -1);
  const __m128i m2b = _mm_setr_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                    0, 3, 6, 9, 12, 15);
  __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(r),
                   _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8(v0, m0r),
                                             _mm_shuffle_epi8(v1, m1r)),
                                _mm_shuffle_epi8(v2, m2r)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(g),
                   _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8(v0, m0g),
                                             _mm_shuffle_epi8(v1, m1g)),
                                _mm_shuffle_epi8(v2, m2g)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(b),
                   _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8(v0, m0b),
                                             _mm_shuffle_epi8(v1, m1b)),
                                _mm_shuffle_epi8(v2, m2b)));
}

void DeinterleaveRgbAvx2(const PixelRGB* src, int n, uint8_t* r, uint8_t* g,
                         uint8_t* b) {
  const uint8_t* s = reinterpret_cast<const uint8_t*>(src);
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    const uint8_t* p = s + static_cast<size_t>(3) * i;
    Deinterleave16(p, r + i, g + i, b + i);
    Deinterleave16(p + 48, r + i + 16, g + i + 16, b + i + 16);
  }
  if (i + 16 <= n) {
    Deinterleave16(s + static_cast<size_t>(3) * i, r + i, g + i, b + i);
    i += 16;
  }
  if (i < n) {
    if (n >= 16) {
      // Overlapped tail: the planar outputs never alias the packed input,
      // so redoing the last full block stores identical values.
      Deinterleave16(s + static_cast<size_t>(3) * (n - 16), r + n - 16,
                     g + n - 16, b + n - 16);
    } else {
      DeinterleaveRgbScalar(src + i, n - i, r + i, g + i, b + i);
    }
  }
}

// Match bytes (1 if max(|ar-br|, |ag-bg|, |ab-bb|) <= tol, else 0) for the
// 16 pixels at offset i.
inline __m128i MatchOnes16(const uint8_t* ar, const uint8_t* ag,
                           const uint8_t* ab, const uint8_t* br,
                           const uint8_t* bg, const uint8_t* bb, int i,
                           __m128i tolv) {
  __m128i var = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ar + i));
  __m128i vbr = _mm_loadu_si128(reinterpret_cast<const __m128i*>(br + i));
  __m128i vag = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ag + i));
  __m128i vbg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bg + i));
  __m128i vab = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ab + i));
  __m128i vbb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bb + i));
  // |x - y| for unsigned bytes: saturating differences in both
  // directions, one of which is zero.
  __m128i dr = _mm_or_si128(_mm_subs_epu8(var, vbr), _mm_subs_epu8(vbr, var));
  __m128i dg = _mm_or_si128(_mm_subs_epu8(vag, vbg), _mm_subs_epu8(vbg, vag));
  __m128i db = _mm_or_si128(_mm_subs_epu8(vab, vbb), _mm_subs_epu8(vbb, vab));
  __m128i dm = _mm_max_epu8(_mm_max_epu8(dr, dg), db);
  // dm <= tol  <=>  min(dm, tol) == dm (unsigned bytes).
  __m128i hit = _mm_cmpeq_epi8(_mm_min_epu8(dm, tolv), dm);
  return _mm_and_si128(hit, _mm_set1_epi8(1));
}

// 128-bit lanes on purpose: shift overlaps shrink by one pixel per shift,
// so every remainder mod 32 is equally common and a 256-bit main loop only
// moves work into its tails. The sub-16 remainder is one overlapped final
// vector rather than a scalar loop; overlaps below 16 pixels run scalar.
int MatchMaskTotalAvx2(const uint8_t* ar, const uint8_t* ag,
                       const uint8_t* ab, const uint8_t* br,
                       const uint8_t* bg, const uint8_t* bb, int overlap,
                       uint8_t tol, uint8_t* m) {
  if (overlap < 16) {
    return MatchMaskTotalScalar(ar, ag, ab, br, bg, bb, overlap, tol, m);
  }
  const __m128i tolv = _mm_set1_epi8(static_cast<char>(tol));
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  int i = 0;
  for (; i + 16 <= overlap; i += 16) {
    __m128i ones = MatchOnes16(ar, ag, ab, br, bg, bb, i, tolv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(m + i), ones);
    // Byte-popcount via psadbw: the 0/1 bytes sum into two u64 halves.
    acc = _mm_add_epi64(acc, _mm_sad_epu8(ones, zero));
  }
  if (i < overlap) {
    // Overlapped tail: redo the last 16 pixels. Each mask byte is a pure
    // function of its pixel pair and m does not alias the inputs, so the
    // re-stored bytes are identical; only lanes at or past i are counted.
    const int last = overlap - 16;
    __m128i ones = MatchOnes16(ar, ag, ab, br, bg, bb, last, tolv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(m + last), ones);
    const __m128i lane =
        _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m128i fresh =
        _mm_cmpgt_epi8(lane, _mm_set1_epi8(static_cast<char>(i - last - 1)));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(_mm_and_si128(ones, fresh), zero));
  }
  return static_cast<int>(_mm_extract_epi64(acc, 0) +
                          _mm_extract_epi64(acc, 1));
}

}  // namespace

const KernelOps kAvx2Ops = {
    &ReduceRowsOnceAvx2,
    &ReduceRowInPlaceAvx2,
    &DeinterleaveRgbAvx2,
    &MatchMaskTotalAvx2,
};

}  // namespace kernels
}  // namespace vdb

#endif  // VDB_KERNELS_HAVE_AVX2
