// Per-layer metrics: what the traced run records around each layer it
// calls, plus the direct layer probes run outside the timed phase.
#ifndef VDBPERF_LAYERS_H_
#define VDBPERF_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/video_database.h"
#include "index/frame_index.h"
#include "mix.h"
#include "serve/wire.h"

namespace vdbperf {

// Corpus constants shared by every workload.
inline constexpr int kBaseClips = 6;
inline constexpr double kClipScale = 0.15;
inline constexpr int kSetupReps = 3;

// Span names of the client calls, by request kind.
inline const char* KindSpanName(int kind) {
  static const char* const kNames[] = {"client.query", "client.queryframe",
                                       "client.tree"};
  return kNames[kind];
}

// The STATS row of `verb`, or nullptr when the server never counted it.
const vdb::serve::VerbStats* FindVerb(
    const std::vector<vdb::serve::VerbStats>& rows, vdb::serve::Verb verb);

// The filesystem type `path` sits on ("ext4", "tmpfs", ...), from
// /proc/self/mounts; "unknown" when it cannot be told.
std::string FilesystemType(const std::string& path);

// Every per-layer value. A layer a workload bypasses keeps 0 — it did no
// work there — so every traced run reports the full set.
struct LayerProbes {
  // core/kernels
  double signature_us = 0.0;
  // stream (summed over tenants)
  double decode_busy_s = 0.0;
  double signature_busy_s = 0.0;
  double sbd_busy_s = 0.0;
  double finalize_busy_s = 0.0;
  int frames_in_flight_max = 0;
  // farm
  int farm_threads_peak = 0;
  double signature_steps = 0.0;
  double fairness_min_max = 0.0;
  // farm committer, store, index
  double publishes = 0.0;
  double reloads_ok = 0.0;
  double reloads_coalesced = 0.0;
  double publish_ms = 0.0;
  double save_ms = 0.0;
  double index_build_ms = 0.0;
  // serve
  double reload_ms = 0.0;
  vdb::serve::StatsResponse front;  // the front end the clients talk to
  double client_p50_us[kNumKinds] = {0.0, 0.0, 0.0};
  // core
  double search_us = 0.0;
  double results_per_query = 0.0;
  // index
  double index_query_us = 0.0;
  double candidates_per_query = 0.0;
  double probed_per_query = 0.0;
  // cluster
  double backend_calls_per_query = 0.0;
  double backend_calls_per_queryframe = 0.0;
  double shard_call_query_us = 0.0;
  int cluster_threads_peak = 0;
  double degraded = 0.0;
  // harness
  long ops_attempted = 0;
  long ops_failed = 0;
  double late_p99_ms = 0.0;
  double trace_overhead_pct = 0.0;
};

// Times ComputeFrameSignature, VideoDatabase::Search and
// FrameIndex::QuerySignature directly (no network) on the mix's own
// queries, filling the kernels/core/index fields.
void ProbeLayers(const std::vector<MixRequest>& mix,
                 const vdb::VideoDatabase& db,
                 const vdb::index::FrameIndex& frame_index,
                 LayerProbes* probes);

void EmitLayerMetrics(const LayerProbes& probes, RunResult* result);

// The metric names each mode must print, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace vdbperf

#endif  // VDBPERF_LAYERS_H_
