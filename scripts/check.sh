#!/usr/bin/env bash
# The tier-1 check in one line: plain build + full test suite, then the
# labelled suites under AddressSanitizer and ThreadSanitizer.
#
#   scripts/check.sh            # everything (plain + asan + tsan)
#   scripts/check.sh plain      # just the uninstrumented build + full suite
#   scripts/check.sh asan tsan  # just the sanitizer legs
#   scripts/check.sh kernels    # fast kernel-equivalence smoke leg
#   scripts/check.sh simd       # kernels suites per SIMD level under ASan
#   scripts/check.sh serve      # serve suites under ASan then TSan
#   scripts/check.sh cluster    # cluster suites under ASan then TSan
#   scripts/check.sh index      # frame-index suites under ASan then TSan
#   scripts/check.sh farm       # ingest-farm suites under ASan then TSan
#   scripts/check.sh stress     # cluster/serve/farm/stream x20 under CPU hogs
#
# Build trees: build/ (plain), build-asan/, build-tsan/ — reused across
# runs, so incremental checks are cheap. JOBS overrides the parallelism.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(plain asan tsan)
fi

banner() { printf '\n=== %s ===\n' "$*"; }

configure_and_build() {
  local dir="$1" sanitize="$2"
  cmake -B "$dir" -S . -DVDB_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$dir" -j "$JOBS"
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    plain)
      banner "plain build + full suite"
      configure_and_build build ""
      ctest --test-dir build --output-on-failure -j "$JOBS"
      ;;
    asan)
      # ASan watches the parsing-heavy suites: the wire/catalog/segment
      # decoders chew on truncated and bit-flipped input, where an
      # over-read hides.
      # The kernels suite rides along: its gather maps and in-place
      # reductions are exactly the kind of indexed hot-loop code where an
      # off-by-one over-read hides.
      banner "asan build + serve/cluster/concurrency/store/stream/farm/kernels/index suites"
      configure_and_build build-asan address
      ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
        -L 'serve|cluster|concurrency|store|stream|farm|kernels|index'
      ;;
    tsan)
      # TSan watches the threaded suites: thread pool, concurrent ingest,
      # the server's snapshot swaps under concurrent clients, and the
      # streaming pipeline's reorder window and worker steps. The kernels
      # suite rides along for its thread-local workspace handoff.
      banner "tsan build + serve/cluster/concurrency/store/stream/farm/kernels/index suites"
      configure_and_build build-tsan thread
      ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -L 'serve|cluster|concurrency|store|stream|farm|kernels|index'
      ;;
    serve)
      # The serving-layer battery on its own: the event loop, pipelining
      # equivalence, chaos suite and metrics shards under ASan (buffer
      # handling in the frame parser and vectored flush) and TSan (the
      # reload executor, cross-worker completions, sharded metrics).
      banner "serve leg: asan build + serve suites"
      configure_and_build build-asan address
      ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L serve
      banner "serve leg: tsan build + serve suites"
      configure_and_build build-tsan thread
      ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L serve
      ;;
    cluster)
      # The sharded-cluster battery on its own: the router merge property,
      # degraded mode, replica failover, and the kill-a-backend chaos test
      # under ASan (wire merging, id translation, the send-then-gather
      # loop's leg bookkeeping) and TSan (connection pools shared by
      # concurrent fan-outs, span swaps, per-shard metrics lanes).
      banner "cluster leg: asan build + cluster suites"
      configure_and_build build-asan address
      ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L cluster
      banner "cluster leg: tsan build + cluster suites"
      configure_and_build build-tsan thread
      ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L cluster
      ;;
    index)
      # The query-by-frame index battery on its own: token quantization,
      # the inverted postings, planted-query recall, and the content-addressed
      # segment persistence under ASan (postings decode, segment checksum
      # paths chew on bit-flipped files) and TSan (the server's coupled
      # catalog+index snapshot swap is exercised by the serve leg; here the
      # suite rides the instrumented build for its allocator-heavy freeze).
      banner "index leg: asan build + index suites"
      configure_and_build build-asan address
      ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L index
      banner "index leg: tsan build + index suites"
      configure_and_build build-tsan thread
      ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L index
      ;;
    farm)
      # The multi-tenant farm battery on its own: the weighted-RR
      # dispatcher, shared-worker fan-out, single-committer publish
      # serialization, shed/resume convergence and the byte-identity sweep
      # under ASan (workspace reuse across tenants, window handoff) and TSan
      # (the dispatcher's slot state, the committer's publish/reload
      # coalescing, lag tracking against running pipelines).
      banner "farm leg: asan build + farm suites"
      configure_and_build build-asan address
      ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L farm
      banner "farm leg: tsan build + farm suites"
      configure_and_build build-tsan thread
      ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L farm
      ;;
    stress)
      # The plain build's cluster, serve, farm and stream suites, each
      # test rerun until it fails (at most 20 times) while `nproc`
      # busy-loop shells hog every core: deadline-driven code (hedges,
      # read timeouts, shedding) and the farm's end-to-end fairness bound
      # show their timing flakes here rather than on a loaded CI host.
      banner "stress leg: plain build + cluster|serve|farm|stream suites x20 under $(nproc) CPU hogs"
      configure_and_build build ""
      hogs=()
      trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT
      for _ in $(seq 1 "$(nproc)"); do
        while :; do :; done &
        hogs+=($!)
      done
      ctest --test-dir build --output-on-failure -j "$(nproc)" \
        -L 'cluster|serve|farm|stream' --repeat until-fail:20
      kill "${hogs[@]}"
      wait "${hogs[@]}" 2>/dev/null || true
      trap - EXIT
      ;;
    kernels)
      # Fast smoke: just the kernel-equivalence suite on the plain build.
      banner "kernel-equivalence smoke (ctest -L kernels)"
      configure_and_build build ""
      ctest --test-dir build --output-on-failure -j "$JOBS" -L kernels
      ;;
    simd)
      # The SIMD dispatch battery: the whole kernels label (bit-exactness
      # vs. reference, per-level equivalence, all 22 presets end to end)
      # re-run once per dispatch level this host supports, forced via
      # VDB_SIMD, under ASan — unaligned loads, overlapped vector tails
      # and the in-place horizontal sweeps are exactly where an
      # out-of-bounds read would hide. ctest propagates the environment
      # to every test binary.
      banner "simd leg: asan build + kernels suites per dispatch level"
      configure_and_build build-asan address
      levels="scalar"
      if grep -qw sse4_1 /proc/cpuinfo; then levels="$levels sse4"; fi
      if grep -qw avx2 /proc/cpuinfo; then levels="$levels avx2"; fi
      for level in $levels; do
        banner "simd leg: VDB_SIMD=$level"
        VDB_SIMD="$level" ctest --test-dir build-asan --output-on-failure \
          -j "$JOBS" -L kernels
      done
      ;;
    *)
      echo "check.sh: unknown stage '$stage' (want plain, asan, tsan, serve, cluster, index, farm, stress, kernels, simd)" >&2
      exit 2
      ;;
  esac
done

banner "all stages passed: ${STAGES[*]}"
