#!/usr/bin/env bash
# Kernel-layer perf: reference (double, per-column, allocating) vs.
# optimized (fixed-point, planar, allocation-free) signature kernels, plus
# the shift-match scan and one family per available SIMD dispatch level:
# scalar always, avx2 (the one vector level) on AVX2 hosts
# (BM_ReduceRows_<level>, BM_ShiftMatch_<level>, BM_FrameSignature_<level>).
# Writes BENCH_kernels.json (google-benchmark JSON) at the repo root. The
# acceptance bars: >= 3x single-thread speedup of
# BM_FrameSignature_Kernel/160 over BM_FrameSignature_Reference/160, and
# >= 1.5x of the avx2 BM_ReduceRows family (geometric mean over its sizes)
# over its scalar counterpart on AVX2 hosts. After writing the JSON the
# script checks both and exits 4 when either falls short.
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

python3 - "$OUT" <<'PY'
import json
import math
import sys

times = {b["name"]: b["real_time"]
         for b in json.load(open(sys.argv[1]))["benchmarks"]
         if b.get("run_type", "iteration") == "iteration"}
short = []

kernel = times["BM_FrameSignature_Reference/160"] / \
    times["BM_FrameSignature_Kernel/160"]
print("bench_kernels: FrameSignature/160 kernel %.2fx the reference "
      "(bar 3x)" % kernel)
if kernel < 3.0:
    short.append("FrameSignature/160")

sizes = sorted(name.split("/")[1] for name in times
               if name.startswith("BM_ReduceRows_avx2/"))
if sizes:
    ratios = [times["BM_ReduceRows_scalar/" + size] /
              times["BM_ReduceRows_avx2/" + size] for size in sizes]
    family = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print("bench_kernels: ReduceRows avx2 %.2fx scalar (sizes %s: %s; "
          "bar 1.5x)" % (family, ",".join(sizes),
                         ", ".join("%.2f" % r for r in ratios)))
    if family < 1.5:
        short.append("ReduceRows avx2")
else:
    print("bench_kernels: no avx2 ReduceRows family on this host; "
          "that bar is not checked")

if short:
    print("bench_kernels: below the bar: " + ", ".join(short),
          file=sys.stderr)
    sys.exit(4)
PY
