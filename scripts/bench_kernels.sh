#!/usr/bin/env bash
# Kernel-layer perf: reference (double, per-column, allocating) vs.
# optimized (fixed-point, planar, allocation-free) signature kernels, plus
# the shift-match scan and one family per available SIMD dispatch level:
# scalar always, avx2 (the one vector level) on AVX2 hosts
# (BM_ReduceRows_<level>, BM_ShiftMatch_<level>, BM_FrameSignature_<level>).
# Writes BENCH_kernels.json (google-benchmark JSON) at the repo root. The
# acceptance bars: >= 3x single-thread speedup of
# BM_FrameSignature_Kernel/160 over BM_FrameSignature_Reference/160, and
# >= 1.5x of the avx2 BM_ReduceRows family over its scalar counterpart on
# AVX2 hosts.
#
#   scripts/bench_kernels.sh
#
# Knobs: VDB_KERNEL_BENCH_MIN_TIME (seconds per benchmark, default 0.5),
# JOBS (build parallelism), VDB_SIMD (pin the startup dispatch level for
# the static Reference/Kernel families).

set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME="${VDB_KERNEL_BENCH_MIN_TIME:-0.5}"
JOBS="${JOBS:-$(nproc)}"
OUT=BENCH_kernels.json

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" --target bench_perf_kernels > /dev/null

# Refuse to record numbers from a Debug-class build: a stale build/ cache
# configured for Debug would otherwise survive the line above only if
# someone edits it, and the binary itself double-checks via NDEBUG
# (bench_util.h RequireReleaseBuild), but fail fast and loud here too.
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' build/CMakeCache.txt | cut -d= -f2)"
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    echo "bench_kernels: build/ is configured as '${build_type:-<empty>}'," \
         "not a Release-class build; refusing to record numbers" >&2
    exit 3
    ;;
esac

build/bench/bench_perf_kernels \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$OUT" --benchmark_out_format=json \
  --benchmark_format=console

echo "bench_kernels: wrote $OUT (build type $build_type)"
