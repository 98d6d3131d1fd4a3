#!/usr/bin/env bash
# Cluster-perf trajectory: build a store of the 22 Table-5 genre clips,
# split it into 1/2/4 shard stores (`vdbtool store-shard`), serve each
# shard with its own vdbserve, put vdbrouter in front, and drive the
# router with vdbload. For each shard count the load runs twice — fully
# healthy, then again with one backend SIGKILLed mid-cluster — so the
# trajectory records both the scaling curve and the degraded-mode cost.
# Writes BENCH_cluster.json (per-configuration QPS + p50/p99 + the
# router's per-shard latency lanes, with the CPU count and build type) at
# the repo root.
#
#   scripts/bench_cluster.sh
#
# Knobs: VDB_CLUSTER_BENCH_SCALE (clip duration scale, default 0.05),
# VDB_CLUSTER_BENCH_REQUESTS (requests per client thread, default 2000),
# VDB_CLUSTER_BENCH_THREADS (vdbload client threads, default 4),
# JOBS (build parallelism). Synth renders and the source store are cached
# in build/bench-cluster/, so re-runs skip straight to the measurement.

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${VDB_CLUSTER_BENCH_SCALE:-0.05}"
REQUESTS="${VDB_CLUSTER_BENCH_REQUESTS:-2000}"
THREADS="${VDB_CLUSTER_BENCH_THREADS:-4}"
JOBS="${JOBS:-$(nproc)}"
WORK=build/bench-cluster
OUT=BENCH_cluster.json

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build -j "$JOBS" \
  --target vdbtool vdbserve vdbrouter vdbload > /dev/null
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' build/CMakeCache.txt | cut -d= -f2)"
mkdir -p "$WORK"

# The Table-5 clip names, parsed from `vdbtool presets` so the list can
# never drift from the workload module.
clips=()
while IFS= read -r line; do
  clips+=("$line")
done < <(build/tools/vdbtool presets |
         sed -n '/^table-5/,$p' | sed -n 's/^  \(.*\) \[.*\]$/\1/p')
echo "bench_cluster: ${#clips[@]} Table-5 clips at scale $SCALE"

# One source store of the whole corpus, split per shard count below.
store="$WORK/store_$SCALE"
if [ ! -d "$store" ]; then
  vdbs=()
  for clip in "${clips[@]}"; do
    slug=$(echo "$clip" | tr -cs 'A-Za-z0-9' '_')
    vdb="$WORK/${slug}_$SCALE.vdb"
    if [ ! -f "$vdb" ]; then
      build/tools/vdbtool synth "$clip" "$vdb" "$SCALE" > /dev/null
    fi
    vdbs+=("$vdb")
  done
  build/tools/vdbtool store-save "$store" "${vdbs[@]}" > /dev/null
fi

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

# start_backend <shard-dir> <port-file>: vdbserve on an ephemeral port.
# Sets last_pid/last_port (no subshell — the pid must land in pids).
start_backend() {
  local dir="$1" port_file="$2"
  rm -f "$port_file"
  build/tools/vdbserve "$dir" --port 0 --port-file "$port_file" \
    > /dev/null 2>&1 &
  last_pid=$!
  pids+=("$last_pid")
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  last_port=$(cat "$port_file")
}

runs=()
for shards in 1 2 4; do
  cluster="$WORK/cluster_${shards}_$SCALE"
  if [ ! -d "$cluster" ]; then
    build/tools/vdbtool store-shard "$store" "$cluster" "$shards" > /dev/null
  fi

  for mode in healthy degraded; do
    if [ "$mode" = degraded ] && [ "$shards" -eq 1 ]; then
      continue  # killing the only shard is an outage, not degraded mode
    fi
    echo "bench_cluster: $shards shard(s), $mode"

    backend_pids=()
    shard_args=()
    for shard in $(seq 0 $((shards - 1))); do
      start_backend "$cluster/shard-$shard" "$WORK/s$shard.port"
      backend_pids+=("$last_pid")
      shard_args+=(--shard "127.0.0.1:$last_port")
    done

    router_port_file="$WORK/router.port"
    rm -f "$router_port_file"
    build/tools/vdbrouter "${shard_args[@]}" --port 0 \
      --port-file "$router_port_file" > /dev/null 2>&1 &
    pids+=($!)
    router_pid="${pids[-1]}"
    for _ in $(seq 1 100); do
      [ -s "$router_port_file" ] && break
      sleep 0.1
    done
    router_port=$(cat "$router_port_file")

    if [ "$mode" = degraded ]; then
      # SIGKILL the last backend: the run measures the surviving shards
      # answering through the router's down-marking and degraded merge.
      kill -9 "${backend_pids[-1]}" 2>/dev/null || true
      wait "${backend_pids[-1]}" 2>/dev/null || true
    fi

    run_json="$WORK/run_${shards}_$mode.json"
    build/tools/vdbload --port "$router_port" --threads "$THREADS" \
      --requests "$REQUESTS" --verb query --json "$run_json" > /dev/null
    runs+=("$shards" "$mode" "$run_json")

    # Tear down this configuration's processes before the next one.
    kill "$router_pid" 2>/dev/null || true
    for pid in "${backend_pids[@]}"; do
      kill "$pid" 2>/dev/null || true
    done
    for pid in "${backend_pids[@]}" "$router_pid"; do
      wait "$pid" 2>/dev/null || true
    done
    pids=()
  done
done

# Stitch the per-run vdbload JSON files into one trajectory file.
{
  echo '{'
  echo '  "bench": "cluster",'
  echo "  \"num_cpus\": $(nproc),"
  echo "  \"vdb_build_type\": \"$build_type\","
  echo "  \"scale\": $SCALE,"
  echo "  \"client_threads\": $THREADS,"
  echo "  \"requests_per_thread\": $REQUESTS,"
  echo '  "configurations": ['
  i=0
  total=$((${#runs[@]} / 3))
  while [ $i -lt ${#runs[@]} ]; do
    shards="${runs[$i]}"
    mode="${runs[$((i + 1))]}"
    run_json="${runs[$((i + 2))]}"
    comma=','
    [ $((i / 3)) -eq $((total - 1)) ] && comma=''
    printf '    {"shards": %s, "mode": "%s", "load": ' "$shards" "$mode"
    sed 's/^/    /' "$run_json" | sed '1s/^ *//' | sed "\$s/\$/}$comma/"
    i=$((i + 3))
  done
  echo '  ]'
  echo '}'
} > "$OUT"
echo "bench_cluster: wrote $OUT"
