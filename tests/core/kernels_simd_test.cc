// The SIMD dispatch contract (core/kernels/simd.h): every compiled and
// host-supported dispatch level (scalar, AVX2) must produce
// byte-identical results — per kernel, per frame, and end to end down to
// serialized catalog entries and their fingerprints across all 22 Table-5
// presets. kernels_test pins the scalar level to the double-precision
// reference; this suite pins every other level to scalar (and, for frame
// signatures, to the reference directly), including misaligned pointers
// and widths that end in partial vectors.
//
// The whole file also runs correctly with VDB_SIMD set in the environment
// (the check.sh `simd` leg forces each level in turn): the startup test
// asserts the override was honored, and every other test pins levels
// explicitly via ScopedSimdLevel.

#include "core/kernels/simd.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_io.h"
#include "core/features.h"
#include "core/geometry.h"
#include "core/kernels.h"
#include "core/kernels/kernel_ops.h"
#include "core/scene_tree.h"
#include "core/shot_detector.h"
#include "core/video_database.h"
#include "synth/workload.h"
#include "tests/support/render_cache.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/random.h"
#include "video/video_io.h"

namespace vdb {
namespace {

// Captured before main() runs any test body: the level InitialLevel()
// selected from CPUID + VDB_SIMD. Tests below set and restore levels, so
// ActiveSimdLevel() later in the run no longer reflects startup.
const SimdLevel g_startup_level = ActiveSimdLevel();

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    Status status = SetSimdLevel(level);
    VDB_CHECK(status.ok()) << status.message();
  }
  ~ScopedSimdLevel() {
    Status status = SetSimdLevel(prev_);
    VDB_CHECK(status.ok()) << status.message();
  }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

PixelRGB RandomPixel(Pcg32* rng) {
  return PixelRGB(static_cast<uint8_t>(rng->NextBounded(256)),
                  static_cast<uint8_t>(rng->NextBounded(256)),
                  static_cast<uint8_t>(rng->NextBounded(256)));
}

Frame RandomFrame(int width, int height, uint64_t seed) {
  Pcg32 rng(seed);
  Frame frame(width, height);
  for (PixelRGB& p : frame.pixels()) p = RandomPixel(&rng);
  return frame;
}

Signature RandomLine(int n, uint64_t seed, int value_range = 256) {
  Pcg32 rng(seed);
  Signature line(static_cast<size_t>(n));
  for (PixelRGB& p : line) {
    p = PixelRGB(static_cast<uint8_t>(
                     rng.NextBounded(static_cast<uint32_t>(value_range))),
                 static_cast<uint8_t>(
                     rng.NextBounded(static_cast<uint32_t>(value_range))),
                 static_cast<uint8_t>(
                     rng.NextBounded(static_cast<uint32_t>(value_range))));
  }
  return line;
}

void ExpectSignatureEq(const FrameSignature& a, const FrameSignature& b,
                       const std::string& what) {
  ASSERT_EQ(a.signature_ba.size(), b.signature_ba.size()) << what;
  for (size_t i = 0; i < a.signature_ba.size(); ++i) {
    ASSERT_EQ(a.signature_ba[i], b.signature_ba[i])
        << what << " signature pixel " << i;
  }
  EXPECT_EQ(a.sign_ba, b.sign_ba) << what;
  EXPECT_EQ(a.sign_oa, b.sign_oa) << what;
}

// ---------------------------------------------------------------------------
// Dispatch mechanics.

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndLevelsAscend) {
  const std::vector<SimdLevel>& levels = AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  EXPECT_EQ(DetectedSimdLevel(), levels.back());
}

TEST(SimdDispatchTest, StartupLevelHonorsEnvironmentOverride) {
  SimdLevel expected = DetectedSimdLevel();
  const char* env = std::getenv("VDB_SIMD");
  if (env != nullptr && *env != '\0') {
    Result<SimdLevel> parsed = ParseSimdLevel(env);
    if (parsed.ok()) {
      for (SimdLevel level : AvailableSimdLevels()) {
        if (level == *parsed) expected = *parsed;
      }
    }
  }
  EXPECT_EQ(g_startup_level, expected)
      << "startup selected " << SimdLevelName(g_startup_level);
}

TEST(SimdDispatchTest, SetLevelRoundTripsThroughEveryAvailableLevel) {
  ScopedSimdLevel restore(ActiveSimdLevel());
  for (SimdLevel level : AvailableSimdLevels()) {
    ASSERT_TRUE(SetSimdLevel(level).ok());
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_STREQ(SimdLevelName(ActiveSimdLevel()), SimdLevelName(level));
  }
}

TEST(SimdDispatchTest, ParseAcceptsCanonicalNamesRejectsJunk) {
  EXPECT_EQ(ParseSimdLevel("scalar").value(), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevel("avx2").value(), SimdLevel::kAvx2);
  EXPECT_FALSE(ParseSimdLevel("").ok());
  EXPECT_FALSE(ParseSimdLevel("AVX2").ok());
  EXPECT_FALSE(ParseSimdLevel("avx512").ok());
  // The retired 128-bit level's names are unknown now, like any junk.
  EXPECT_FALSE(ParseSimdLevel("sse4").ok());
  EXPECT_FALSE(ParseSimdLevel("sse4.1").ok());
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    EXPECT_EQ(ParseSimdLevel(SimdLevelName(level)).value(), level);
  }
}

// ---------------------------------------------------------------------------
// Per-level batteries: one fixture instance per available dispatch level.

class SimdLevelTest : public testing::TestWithParam<SimdLevel> {};

INSTANTIATE_TEST_SUITE_P(
    AvailableLevels, SimdLevelTest,
    testing::ValuesIn(AvailableSimdLevels()),
    [](const testing::TestParamInfo<SimdLevel>& info) {
      return SimdLevelName(info.param);
    });

// Raw row reduce: widths straddling every vector-width boundary (16 and
// 32 byte lanes) plus scalar-only tails, with deliberately misaligned
// input and output pointers. Vector loads are all `loadu`, so alignment
// must never change bytes or trip ASan.
TEST_P(SimdLevelTest, ReduceRowsBitExactVsScalarMisalignedAndTailWidths) {
  const int kWidths[] = {1,  2,  3,  5,  7,  15, 16, 17,
                         31, 32, 33, 40, 61, 127, 128, 129};
  for (int rows : {5, 13, 29, 61, 253}) {
    for (int width : kWidths) {
      const size_t in_size = static_cast<size_t>(width) * rows;
      const size_t out_size =
          static_cast<size_t>(width) * ((rows - 3) / 2);
      for (size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
        Pcg32 rng(static_cast<uint64_t>(rows * 1000 + width * 7 + 1) +
                  offset);
        std::vector<uint8_t> in(in_size + offset);
        std::vector<uint8_t> got(out_size + offset, 0xAA);
        std::vector<uint8_t> want(out_size, 0x55);
        for (size_t i = 0; i < in_size; ++i) {
          in[offset + i] = static_cast<uint8_t>(rng.NextBounded(256));
        }
        {
          ScopedSimdLevel scalar(SimdLevel::kScalar);
          ReduceRowsOnce(in.data() + offset, width, rows, want.data());
        }
        {
          ScopedSimdLevel level(GetParam());
          ReduceRowsOnce(in.data() + offset, width, rows,
                         got.data() + offset);
        }
        for (size_t i = 0; i < out_size; ++i) {
          ASSERT_EQ(got[offset + i], want[i])
              << SimdLevelName(GetParam()) << " rows=" << rows
              << " width=" << width << " offset=" << offset << " i=" << i;
        }
      }
    }
  }
}

// Whole frames across the size-set edge geometries: every level must match
// the double-precision reference exactly (this also covers the in-place
// horizontal sweeps and the fused gathers that feed the row kernels).
TEST_P(SimdLevelTest, FrameSignaturesMatchReferenceAcrossGeometries) {
  ScopedSimdLevel level(GetParam());
  const int kGeometries[][2] = {
      {10, 10},  {16, 12},   {40, 30},  {64, 48},   {93, 77},
      {120, 90}, {160, 120}, {200, 150}, {320, 240}, {320, 300},
      {360, 90}, {600, 61},  {640, 480}};
  PyramidWorkspace workspace;
  FrameSignature optimized;
  for (const auto& wh : kGeometries) {
    Result<AreaGeometry> geom = ComputeAreaGeometry(wh[0], wh[1]);
    ASSERT_TRUE(geom.ok()) << geom.status();
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Frame frame = RandomFrame(wh[0], wh[1], seed * 977);
      Result<FrameSignature> reference =
          ComputeFrameSignatureReference(frame, *geom);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_TRUE(workspace.ComputeInto(frame, *geom, &optimized).ok());
      ExpectSignatureEq(optimized, *reference,
                        std::string(SimdLevelName(GetParam())) + " " +
                            std::to_string(wh[0]) + "x" +
                            std::to_string(wh[1]) + " seed " +
                            std::to_string(seed));
    }
  }
}

// Shift-match sweep: lengths exercising full vectors, partial tails and
// the n < 16 scalar-only regime. 1..33 give the full-length overlap (the
// one shift every tolerance visits) every residue mod 16 and mod 32, so
// each tail of the mask loop and of the deinterleave is checked. The
// deinterleave and mask kernels see misaligned pointers naturally (every
// shift offsets the planar buffers by an arbitrary amount). The score
// only reads the match count as a pruning bound, so the raw mask kernel
// is also compared byte for byte, count included, at a misaligned offset.
TEST_P(SimdLevelTest, ShiftMatchSweepMatchesReference) {
  ScopedSimdLevel level(GetParam());
  for (int n : {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
                27, 28, 29, 30, 31, 32, 33, 61, 125, 253}) {
    for (int tolerance : {0, 3, 64, 255}) {
      {
        const size_t size = static_cast<size_t>(n) + 1;
        Pcg32 rng(static_cast<uint64_t>(n * 31 + tolerance));
        std::vector<uint8_t> planes(6 * size);
        for (uint8_t& v : planes) v = static_cast<uint8_t>(rng.NextBounded(64));
        const uint8_t* p = planes.data() + 1;
        const uint8_t tol = static_cast<uint8_t>(tolerance);
        std::vector<uint8_t> want(size, 0x55);
        std::vector<uint8_t> got(size, 0xAA);
        int want_total = kernels::MatchMaskTotalScalar(
            p, p + size, p + 2 * size, p + 3 * size, p + 4 * size,
            p + 5 * size, n, tol, want.data());
        int got_total = kernels::ActiveOps().match_mask_total(
            p, p + size, p + 2 * size, p + 3 * size, p + 4 * size,
            p + 5 * size, n, tol, got.data() + 1);
        EXPECT_EQ(got_total, want_total)
            << SimdLevelName(GetParam()) << " mask n=" << n
            << " tol=" << tolerance;
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(got[static_cast<size_t>(i) + 1],
                    want[static_cast<size_t>(i)])
              << SimdLevelName(GetParam()) << " mask n=" << n
              << " tol=" << tolerance << " i=" << i;
        }
      }
      uint64_t seed = static_cast<uint64_t>(n * 1000 + tolerance);
      Signature a = RandomLine(n, seed, 64);
      Signature b = RandomLine(n, seed + 1, 64);
      EXPECT_EQ(BestShiftMatchScoreKernel(a, b, tolerance),
                BestShiftMatchScoreReference(a, b, tolerance))
          << SimdLevelName(GetParam()) << " random n=" << n
          << " tol=" << tolerance;
      for (int k : {0, 1, n - 1}) {
        Signature shifted(a.size());
        for (int i = 0; i < n; ++i) {
          shifted[static_cast<size_t>(i)] =
              a[static_cast<size_t>((i + k) % n)];
        }
        EXPECT_EQ(BestShiftMatchScoreKernel(a, shifted, tolerance),
                  BestShiftMatchScoreReference(a, shifted, tolerance))
            << SimdLevelName(GetParam()) << " shifted n=" << n
            << " k=" << k << " tol=" << tolerance;
      }
      EXPECT_EQ(BestShiftMatchScoreKernel(a, a, tolerance), 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: all 22 Table-5 presets through the full analysis pipeline
// (signatures, SBD, features, scene tree), serialized as catalog entries.
// Every level's bytes — and hence the store fingerprints — must be
// identical to the scalar level's (which kernels_test pins to the
// reference path).

constexpr double kPresetScale = 0.03;
constexpr uint64_t kPresetSeed = 3;

std::string AnalyzeEntryBytes(const Video& video) {
  VideoSignatures sigs = ComputeVideoSignatures(video).value();
  CameraTrackingDetector detector;
  ShotDetectionResult shots = detector.DetectFromSignatures(sigs).value();
  CatalogEntry entry;
  entry.name = video.name();
  entry.fps = video.fps();
  entry.frame_count = video.frame_count();
  entry.signatures = sigs;
  entry.shots = shots.shots;
  entry.sbd_stats = shots.stage_stats;
  entry.features = ComputeAllShotFeatures(sigs, shots.shots).value();
  entry.scene_tree = SceneTreeBuilder().Build(sigs, shots.shots).value();
  BinaryWriter w;
  SerializeCatalogEntry(entry, &w);
  return w.TakeBuffer();
}

class SimdPresetTest : public testing::TestWithParam<int> {};

TEST_P(SimdPresetTest, EntryBytesIdenticalAcrossAllLevels) {
  const ClipProfile profile =
      Table5Profiles()[static_cast<size_t>(GetParam())];
  Storyboard board =
      MakeStoryboardFromProfile(profile, kPresetScale, kPresetSeed);
  const Video& video = testsupport::CachedRender(board).video;

  std::string scalar_bytes;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    scalar_bytes = AnalyzeEntryBytes(video);
  }
  uint32_t scalar_fp =
      Fnv1a32(reinterpret_cast<const uint8_t*>(scalar_bytes.data()),
              scalar_bytes.size());
  for (SimdLevel lvl : AvailableSimdLevels()) {
    if (lvl == SimdLevel::kScalar) continue;
    ScopedSimdLevel level(lvl);
    std::string bytes = AnalyzeEntryBytes(video);
    ASSERT_EQ(bytes, scalar_bytes)
        << profile.name << " at " << SimdLevelName(lvl);
    EXPECT_EQ(Fnv1a32(reinterpret_cast<const uint8_t*>(bytes.data()),
                      bytes.size()),
              scalar_fp)
        << profile.name << " at " << SimdLevelName(lvl);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTable5Clips, SimdPresetTest,
    testing::Range(0, static_cast<int>(Table5Profiles().size())),
    [](const testing::TestParamInfo<int>& info) {
      std::string name =
          Table5Profiles()[static_cast<size_t>(info.param)].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace vdb
