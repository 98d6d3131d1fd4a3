// Reference vs. optimized signature kernels (core/kernels.h): the
// double-precision per-column pyramid against the fixed-point, allocation-
// free workspace path, and the O(n^2) shift-match scan against the pruned
// mask kernel. The headline number is the full-frame signature speedup —
// the acceptance bar for the kernel layer is >= 3x single-threaded on
// paper-sized (160x120) frames.
//
//   ./bench/bench_perf_kernels --benchmark_format=json
//
// scripts/bench_kernels.sh wraps this and writes BENCH_kernels.json.
//
// On top of the static Reference/Kernel pairs (which run at the startup
// dispatch level — the best the host supports, or VDB_SIMD), main()
// registers one family per *available* SIMD level (BM_ReduceRows_scalar,
// BM_ShiftMatch_avx2, BM_FrameSignature_avx2, ...) so a single run
// quantifies the hand-vectorized level against the scalar baseline. The
// selected level and the build type are printed and recorded as benchmark
// context (vdb_build_type / simd_level / simd_levels_available).

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "core/extractor.h"
#include "core/geometry.h"
#include "core/kernels.h"
#include "core/kernels/simd.h"
#include "core/pyramid.h"
#include "core/shot_detector.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/random.h"

namespace vdb {
namespace {

Frame RandomFrame(int width, int height, uint64_t seed) {
  Pcg32 rng(seed);
  Frame frame(width, height);
  for (PixelRGB& p : frame.pixels()) {
    p = PixelRGB(static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)));
  }
  return frame;
}

Signature RandomLine(int n, uint64_t seed) {
  Pcg32 rng(seed);
  Signature line(static_cast<size_t>(n));
  for (PixelRGB& p : line) {
    p = PixelRGB(static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)));
  }
  return line;
}

// ---------------------------------------------------------------------------
// Full-frame signature extraction: reference vs. workspace, at the paper's
// frame size and two larger ones. Same random frame on both sides.

void BM_FrameSignature_Reference(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  int height = width * 3 / 4;
  AreaGeometry geom = ComputeAreaGeometry(width, height).value();
  Frame frame = RandomFrame(width, height, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFrameSignatureReference(frame, geom));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(frame.pixel_count()));
}
BENCHMARK(BM_FrameSignature_Reference)->Arg(160)->Arg(320)->Arg(640);

void BM_FrameSignature_Kernel(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  int height = width * 3 / 4;
  AreaGeometry geom = ComputeAreaGeometry(width, height).value();
  Frame frame = RandomFrame(width, height, 7);
  PyramidWorkspace workspace;
  FrameSignature out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.ComputeInto(frame, geom, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(frame.pixel_count()));
}
BENCHMARK(BM_FrameSignature_Kernel)->Arg(160)->Arg(320)->Arg(640);

// ---------------------------------------------------------------------------
// The pyramid reduction alone (no gather): a TBA-shaped planar buffer
// reduced one level, reference per-column path vs. the row-sweeping
// fixed-point kernel.

void BM_ReduceLevel_Reference(benchmark::State& state) {
  int j = static_cast<int>(state.range(0));
  int rows = SizeSetElement(j);
  constexpr int kWidth = 253;  // a 320x240 frame's TBA length is 509 -> w 13
  Frame image(kWidth, rows);
  Pcg32 rng(3);
  for (PixelRGB& p : image.pixels()) {
    p = PixelRGB(static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)),
                 static_cast<uint8_t>(rng.NextBounded(256)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceColumnsToLine(image));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(image.pixel_count()));
}
BENCHMARK(BM_ReduceLevel_Reference)->DenseRange(3, 6);

void BM_ReduceLevel_Kernel(benchmark::State& state) {
  int j = static_cast<int>(state.range(0));
  int rows = SizeSetElement(j);
  constexpr int kWidth = 253;
  Pcg32 rng(3);
  std::vector<uint8_t> in(static_cast<size_t>(kWidth) * rows);
  std::vector<uint8_t> out(in.size());
  for (uint8_t& v : in) v = static_cast<uint8_t>(rng.NextBounded(256));
  for (auto _ : state) {
    // One full reduction cascade rows -> 1, ping-ponging in place like the
    // workspace does (three planes' worth of work to match the reference's
    // RGB cost).
    for (int c = 0; c < 3; ++c) {
      const uint8_t* src = in.data();
      int r = rows;
      while (r > 1) {
        ReduceRowsOnce(src, kWidth, r, out.data());
        src = out.data();
        r = (r - 3) / 2;
      }
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kWidth) * rows);
}
BENCHMARK(BM_ReduceLevel_Kernel)->DenseRange(3, 6);

// ---------------------------------------------------------------------------
// Stage-3 shift matching: the reference O(n^2) scalar scan vs. the pruned
// mask kernel, on unrelated signatures (worst case: pruning saves little,
// masks dominate) and near-identical ones (best case: early exit).

void BM_ShiftMatch_Reference(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Signature a = RandomLine(n, 21);
  Signature b = RandomLine(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestShiftMatchScoreReference(a, b, 12));
  }
}
BENCHMARK(BM_ShiftMatch_Reference)->Arg(125)->Arg(253)->Arg(509);

void BM_ShiftMatch_Kernel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Signature a = RandomLine(n, 21);
  Signature b = RandomLine(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestShiftMatchScoreKernel(a, b, 12));
  }
}
BENCHMARK(BM_ShiftMatch_Kernel)->Arg(125)->Arg(253)->Arg(509);

void BM_ShiftMatch_Kernel_NearIdentical(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Signature a = RandomLine(n, 21);
  Signature b = a;
  b[static_cast<size_t>(n / 2)].r ^= 0xff;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestShiftMatchScoreKernel(a, b, 12));
  }
}
BENCHMARK(BM_ShiftMatch_Kernel_NearIdentical)->Arg(253)->Arg(509);

// ---------------------------------------------------------------------------
// End-to-end flavour: signatures for a rendered Table-5 clip (realistic
// pixel statistics rather than white noise), reference loop vs. the
// production serial path.

const Video& PresetVideo() {
  static const Video* video = [] {
    Storyboard board =
        MakeStoryboardFromProfile(Table5Profiles()[0], 0.02, 5);
    return new Video(RenderStoryboard(board).value().video);
  }();
  return *video;
}

void BM_PresetClip_Reference(benchmark::State& state) {
  const Video& video = PresetVideo();
  AreaGeometry geom =
      ComputeAreaGeometry(video.width(), video.height()).value();
  for (auto _ : state) {
    for (int i = 0; i < video.frame_count(); ++i) {
      benchmark::DoNotOptimize(
          ComputeFrameSignatureReference(video.frame(i), geom));
    }
  }
  state.SetItemsProcessed(state.iterations() * video.frame_count());
}
BENCHMARK(BM_PresetClip_Reference);

void BM_PresetClip_Kernel(benchmark::State& state) {
  const Video& video = PresetVideo();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeVideoSignatures(video));
  }
  state.SetItemsProcessed(state.iterations() * video.frame_count());
}
BENCHMARK(BM_PresetClip_Kernel);

// ---------------------------------------------------------------------------
// Per-dispatch-level families, registered at runtime for exactly the
// levels this host can execute. Each body pins its level for the duration
// of the measurement and restores the startup level afterwards, so the
// static families above are unaffected no matter how gbench interleaves
// repetitions.

class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    ok_ = SetSimdLevel(level).ok();
  }
  ~ScopedLevel() {
    if (ok_) SetSimdLevel(prev_).ok();
  }
  bool ok() const { return ok_; }

 private:
  SimdLevel prev_;
  bool ok_ = false;
};

void RegisterPerLevelBenchmarks() {
  for (SimdLevel level : AvailableSimdLevels()) {
    const std::string suffix = SimdLevelName(level);

    benchmark::RegisterBenchmark(
        ("BM_ReduceRows_" + suffix).c_str(),
        [level](benchmark::State& state) {
          ScopedLevel pin(level);
          if (!pin.ok()) {
            state.SkipWithError("SIMD level unavailable");
            return;
          }
          int j = static_cast<int>(state.range(0));
          int rows = SizeSetElement(j);
          constexpr int kWidth = 253;
          Pcg32 rng(3);
          std::vector<uint8_t> in(static_cast<size_t>(kWidth) * rows);
          std::vector<uint8_t> out(in.size());
          for (uint8_t& v : in) {
            v = static_cast<uint8_t>(rng.NextBounded(256));
          }
          for (auto _ : state) {
            for (int c = 0; c < 3; ++c) {
              const uint8_t* src = in.data();
              int r = rows;
              while (r > 1) {
                ReduceRowsOnce(src, kWidth, r, out.data());
                src = out.data();
                r = (r - 3) / 2;
              }
              benchmark::DoNotOptimize(out.data());
            }
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<long>(kWidth) * rows);
        })
        ->DenseRange(3, 6);

    benchmark::RegisterBenchmark(
        ("BM_ShiftMatch_" + suffix).c_str(),
        [level](benchmark::State& state) {
          ScopedLevel pin(level);
          if (!pin.ok()) {
            state.SkipWithError("SIMD level unavailable");
            return;
          }
          int n = static_cast<int>(state.range(0));
          Signature a = RandomLine(n, 21);
          Signature b = RandomLine(n, 22);
          for (auto _ : state) {
            benchmark::DoNotOptimize(BestShiftMatchScoreKernel(a, b, 12));
          }
        })
        ->Arg(125)
        ->Arg(253)
        ->Arg(509);

    benchmark::RegisterBenchmark(
        ("BM_FrameSignature_" + suffix).c_str(),
        [level](benchmark::State& state) {
          ScopedLevel pin(level);
          if (!pin.ok()) {
            state.SkipWithError("SIMD level unavailable");
            return;
          }
          int width = static_cast<int>(state.range(0));
          int height = width * 3 / 4;
          AreaGeometry geom = ComputeAreaGeometry(width, height).value();
          Frame frame = RandomFrame(width, height, 7);
          PyramidWorkspace workspace;
          FrameSignature out;
          for (auto _ : state) {
            benchmark::DoNotOptimize(workspace.ComputeInto(frame, geom, &out));
            benchmark::DoNotOptimize(out);
          }
          state.SetItemsProcessed(state.iterations() *
                                  static_cast<long>(frame.pixel_count()));
        })
        ->Arg(160)
        ->Arg(320)
        ->Arg(640);
  }
}

}  // namespace
}  // namespace vdb

int main(int argc, char** argv) {
  vdb::bench::RequireReleaseBuild("bench_perf_kernels");

  std::string available;
  for (vdb::SimdLevel level : vdb::AvailableSimdLevels()) {
    if (!available.empty()) available += ",";
    available += vdb::SimdLevelName(level);
  }
  const char* active = vdb::SimdLevelName(vdb::ActiveSimdLevel());
  std::cout << "bench_perf_kernels: simd level " << active << " (available "
            << available << "; pin with VDB_SIMD=<level>), build "
            << vdb::bench::VdbBuildType() << "\n";
  benchmark::AddCustomContext("vdb_build_type", vdb::bench::VdbBuildType());
  benchmark::AddCustomContext("simd_level", active);
  benchmark::AddCustomContext("simd_levels_available", available);

  vdb::RegisterPerLevelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
