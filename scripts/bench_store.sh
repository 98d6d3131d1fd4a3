#!/usr/bin/env bash
# Storage-layer perf trajectory: cold-open latency of the segmented
# crash-safe catalog store, plus the cost of an incremental one-segment
# republish, over the 22 Table-5 presets, and one committer publish of one
# changed video into stores of 64, 256 and 1,024 videos. Writes
# BENCH_store.json (google-benchmark JSON) at the repo root.
#
#   scripts/bench_store.sh
#
# Knobs: VDB_STORE_SCALE (clip duration scale, default 0.03 — raise toward
# 1.0 for paper-scale clips), VDB_STORE_BENCH_MIN_TIME (seconds per
# benchmark, default 0.5), JOBS (build parallelism).

set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME="${VDB_STORE_BENCH_MIN_TIME:-0.5}"
JOBS="${JOBS:-$(nproc)}"
OUT=BENCH_store.json

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" --target bench_perf_store > /dev/null

build/bench/bench_perf_store \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$OUT" --benchmark_out_format=json \
  --benchmark_format=console

echo "bench_store: wrote $OUT"
