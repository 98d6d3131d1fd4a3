#!/usr/bin/env bash
# Scale trajectory of the query-by-frame index: lookup latency of the
# inverted list against a linear sketch scan at 10k / 100k / 1M
# synthetic clips. Writes BENCH_index_scale.json
# (google-benchmark JSON) at the repo root and checks the acceptance
# shape: the inverted lookup must grow sub-linearly (< 20x from 10k to
# the largest scale) while the linear scan grows with the corpus.
#
#   scripts/bench_index_scale.sh
#
# Knobs: VDB_INDEX_SCALE_MAX (largest clip count, default 1000000 —
# set 10000 for a cheap CI smoke pass), VDB_INDEX_BENCH_MIN_TIME
# (seconds per benchmark, default 0.5), JOBS (build parallelism).

set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME="${VDB_INDEX_BENCH_MIN_TIME:-0.5}"
MAX_CLIPS="${VDB_INDEX_SCALE_MAX:-1000000}"
JOBS="${JOBS:-$(nproc)}"
OUT=BENCH_index_scale.json

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" --target bench_index_scale > /dev/null

VDB_INDEX_SCALE_MAX="$MAX_CLIPS" build/bench/bench_index_scale \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$OUT" --benchmark_out_format=json \
  --benchmark_format=console

python3 - "$OUT" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
times = {}  # (name, clips) -> real_time in us
for b in doc["benchmarks"]:
    name, _, clips = b["name"].partition("/")
    times[(name, int(clips))] = b["real_time"]

scales = sorted({clips for _, clips in times})
base, top = scales[0], scales[-1]
corpus_growth = top / base

def growth(name):
    return times[(name, top)] / times[(name, base)]

linear = growth("BM_LinearScanLookup")
inverted = growth("BM_InvertedLookup")
print(f"bench_index_scale: corpus grew {corpus_growth:.0f}x "
      f"({base} -> {top} clips)")
print(f"  linear scan lookup grew {linear:.1f}x")
print(f"  inverted lookup grew    {inverted:.1f}x")
if len(scales) < 2:
    print("  (single scale only -- growth check skipped)")
    sys.exit(0)
if inverted >= 20.0:
    print(f"FAIL: inverted lookup grew {inverted:.1f}x >= 20x "
          f"over a {corpus_growth:.0f}x corpus -- not sub-linear")
    sys.exit(1)
print("  PASS: inverted lookup growth is sub-linear (< 20x)")
EOF

echo "bench_index_scale: wrote $OUT"
