#include "core/motion.h"

#include <gtest/gtest.h>

#include "synth/renderer.h"
#include "synth/storyboard.h"

namespace vdb {
namespace {

TEST(ProbeShiftTest, FindsExactShift) {
  Signature a(61), b(61);
  for (int i = 0; i < 61; ++i) {
    uint8_t v = static_cast<uint8_t>((i * 23) % 200);
    a[static_cast<size_t>(i)] = PixelRGB(v, v, v);
  }
  // b is a shifted right by 3: b(x) = a(x - 3).
  for (int i = 0; i < 61; ++i) {
    int src = i - 3;
    b[static_cast<size_t>(i)] =
        src >= 0 ? a[static_cast<size_t>(src)] : PixelRGB(7, 7, 7);
  }
  ProbeShift shift = EstimateProbeShift(a, b, 30, 8, 12).value();
  EXPECT_EQ(shift.shift, 3);
  EXPECT_LT(shift.residual, 1.0);
}

TEST(ProbeShiftTest, PrefersZeroOnTies) {
  Signature flat(61, PixelRGB(100, 100, 100));
  ProbeShift shift = EstimateProbeShift(flat, flat, 30, 8, 12).value();
  EXPECT_EQ(shift.shift, 0);
  EXPECT_DOUBLE_EQ(shift.residual, 0.0);
}

TEST(ProbeShiftTest, HighResidualOnUnrelatedContent) {
  Signature a(61), b(61);
  for (int i = 0; i < 61; ++i) {
    a[static_cast<size_t>(i)] = PixelRGB(0, 0, 0);
    b[static_cast<size_t>(i)] = PixelRGB(200, 200, 200);
  }
  ProbeShift shift = EstimateProbeShift(a, b, 30, 8, 12).value();
  EXPECT_GT(shift.residual, 100.0);
}

TEST(ProbeShiftTest, RejectsBadWindows) {
  Signature a(61), b(61);
  EXPECT_FALSE(EstimateProbeShift(a, b, 3, 8, 12).ok());   // window off left
  EXPECT_FALSE(EstimateProbeShift(a, b, 58, 8, 12).ok());  // off right
  Signature c(13);
  EXPECT_FALSE(EstimateProbeShift(a, c, 30, 8, 12).ok());  // size mismatch
}

TEST(MotionLabelTest, NamesAreStable) {
  EXPECT_EQ(CameraMotionLabelName(CameraMotionLabel::kStatic), "static");
  EXPECT_EQ(CameraMotionLabelName(CameraMotionLabel::kPanLeft), "pan-left");
  EXPECT_EQ(CameraMotionLabelName(CameraMotionLabel::kZoomOut), "zoom-out");
  EXPECT_EQ(CameraMotionLabelName(CameraMotionLabel::kComplex), "complex");
}

// End-to-end classification on rendered shots with known camera paths.
// Note the renderer's zoom_rate semantics: > 1 widens the field of view
// (zoom-out), < 1 narrows it (zoom-in).
struct MotionCase {
  CameraMotionType type;
  double speed;
  double zoom_rate;
  CameraMotionLabel expected;
};

// Names each case by its fields. Without it gtest prints the raw bytes,
// padding included, and the test names change from build to build.
void PrintTo(const MotionCase& mc, std::ostream* os) {
  *os << CameraMotionLabelName(mc.expected) << " speed=" << mc.speed
      << " zoom=" << mc.zoom_rate;
}

class MotionClassifyTest : public testing::TestWithParam<MotionCase> {};

TEST_P(MotionClassifyTest, ClassifiesRenderedShot) {
  const MotionCase& mc = GetParam();
  Storyboard board;
  board.name = "motion-case";
  board.seed = 9;
  ShotSpec shot;
  shot.label = "only";
  shot.scene_id = 0;
  shot.frame_count = 40;
  shot.camera.type = mc.type;
  shot.camera.speed = mc.speed;
  shot.camera.zoom_rate = mc.zoom_rate;
  shot.noise_stddev = 1.0;
  board.shots.push_back(shot);

  SyntheticVideo sv = RenderStoryboard(board).value();
  VideoSignatures sigs = ComputeVideoSignatures(sv.video).value();
  MotionEstimate estimate =
      ClassifyShotMotion(sigs, Shot{0, 39}).value();
  EXPECT_EQ(estimate.label, mc.expected)
      << "got " << CameraMotionLabelName(estimate.label);
  EXPECT_GT(estimate.confidence, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllMotions, MotionClassifyTest,
    testing::Values(
        MotionCase{CameraMotionType::kStatic, 0, 1.0,
                   CameraMotionLabel::kStatic},
        MotionCase{CameraMotionType::kPan, 2.0, 1.0,
                   CameraMotionLabel::kPanRight},
        MotionCase{CameraMotionType::kPan, -2.0, 1.0,
                   CameraMotionLabel::kPanLeft},
        MotionCase{CameraMotionType::kPan, 8.0, 1.0,
                   CameraMotionLabel::kPanRight},  // fast pan, pass 2
        MotionCase{CameraMotionType::kTilt, 1.5, 1.0,
                   CameraMotionLabel::kTiltDown},
        MotionCase{CameraMotionType::kTilt, -1.5, 1.0,
                   CameraMotionLabel::kTiltUp},
        MotionCase{CameraMotionType::kZoom, 0, 1.012,
                   CameraMotionLabel::kZoomOut},
        MotionCase{CameraMotionType::kZoom, 0, 0.988,
                   CameraMotionLabel::kZoomIn}));

TEST(MotionClassifyTest, SingleFrameShotIsStatic) {
  Storyboard board;
  board.name = "single";
  board.seed = 5;
  ShotSpec shot;
  shot.scene_id = 0;
  shot.frame_count = 2;
  board.shots.push_back(shot);
  SyntheticVideo sv = RenderStoryboard(board).value();
  VideoSignatures sigs = ComputeVideoSignatures(sv.video).value();
  MotionEstimate estimate = ClassifyShotMotion(sigs, Shot{0, 0}).value();
  EXPECT_EQ(estimate.label, CameraMotionLabel::kStatic);
  EXPECT_DOUBLE_EQ(estimate.confidence, 0.0);
}

TEST(MotionClassifyTest, RejectsBadShotRanges) {
  VideoSignatures sigs;
  sigs.frames.resize(5);
  EXPECT_FALSE(ClassifyShotMotion(sigs, Shot{0, 9}).ok());
  EXPECT_FALSE(ClassifyShotMotion(sigs, Shot{-1, 3}).ok());
}

TEST(MotionClassifyTest, ClassifyAllMatchesPerShot) {
  Storyboard board;
  board.name = "two";
  board.seed = 7;
  for (int i = 0; i < 2; ++i) {
    ShotSpec shot;
    shot.scene_id = i;
    shot.frame_count = 30;
    if (i == 1) {
      shot.camera.type = CameraMotionType::kPan;
      shot.camera.speed = 2.0;
    }
    board.shots.push_back(shot);
  }
  SyntheticVideo sv = RenderStoryboard(board).value();
  VideoSignatures sigs = ComputeVideoSignatures(sv.video).value();
  std::vector<Shot> shots = {{0, 29}, {30, 59}};
  std::vector<MotionEstimate> all =
      ClassifyAllShotMotion(sigs, shots).value();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].label, CameraMotionLabel::kStatic);
  EXPECT_EQ(all[1].label, CameraMotionLabel::kPanRight);
}

}  // namespace
}  // namespace vdb
