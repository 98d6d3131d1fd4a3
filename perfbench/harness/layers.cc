#include "layers.h"

#include <sys/stat.h>

#include <fstream>
#include <sstream>

#include "core/extractor.h"
#include "core/geometry.h"

namespace vdbperf {

std::string FilesystemType(const std::string& path) {
  struct stat target {};
  if (::stat(path.c_str(), &target) != 0) return "unknown";
  std::ifstream mounts("/proc/self/mounts");
  std::string line;
  std::string best = "unknown";
  size_t best_len = 0;
  while (std::getline(mounts, line)) {
    std::istringstream fields(line);
    std::string device, mount_point, type;
    fields >> device >> mount_point >> type;
    struct stat mounted {};
    if (::stat(mount_point.c_str(), &mounted) != 0) continue;
    // The longest mount point on the same device that prefixes the path.
    if (mounted.st_dev == target.st_dev && mount_point.size() >= best_len) {
      best = type;
      best_len = mount_point.size();
    }
  }
  return best;
}

const vdb::serve::VerbStats* FindVerb(
    const std::vector<vdb::serve::VerbStats>& rows, vdb::serve::Verb verb) {
  for (const auto& row : rows) {
    if (row.verb == vdb::serve::VerbName(verb)) return &row;
  }
  return nullptr;
}

void ProbeLayers(const std::vector<MixRequest>& mix,
                 const vdb::VideoDatabase& db,
                 const vdb::index::FrameIndex& frame_index,
                 LayerProbes* probes) {
  std::vector<vdb::Frame> frames;
  std::vector<const vdb::serve::QueryRequest*> queries;
  for (const MixRequest& m : mix) {
    if (m.kind == kQueryFrame) frames.push_back(RequestFrame(m.request.query_frame));
    if (m.kind == kQuery) queries.push_back(&m.request.query);
  }

  std::vector<double> signature_us;
  std::vector<vdb::Signature> signatures;
  for (int pass = 0; pass < 3; ++pass) {
    for (const vdb::Frame& frame : frames) {
      auto geometry = vdb::ComputeAreaGeometry(frame.width(), frame.height());
      if (!geometry.ok()) continue;
      Tracer::Scope span("probe.kernels.signature");
      int64_t start = NowNs();
      auto signature = vdb::ComputeFrameSignature(frame, *geometry);
      signature_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
      if (pass == 0 && signature.ok()) {
        signatures.push_back(std::move(signature->signature_ba));
      }
    }
  }
  probes->signature_us = Percentile(signature_us, 0.5);

  std::vector<double> search_us;
  std::vector<double> results;
  for (const vdb::serve::QueryRequest* q : queries) {
    vdb::VarianceQuery query;
    query.var_ba = q->var_ba;
    query.var_oa = q->var_oa;
    query.alpha = q->alpha;
    query.beta = q->beta;
    Tracer::Scope span("probe.core.search");
    int64_t start = NowNs();
    auto found = db.Search(query, q->top_k);
    search_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    results.push_back(found.ok() ? static_cast<double>(found->size()) : 0.0);
  }
  probes->search_us = Percentile(search_us, 0.5);
  probes->results_per_query = Mean(results);

  std::vector<double> index_us;
  std::vector<double> candidates;
  std::vector<double> probed;
  for (const vdb::Signature& signature : signatures) {
    vdb::index::FrameQueryStats stats;
    Tracer::Scope span("probe.index.query");
    int64_t start = NowNs();
    frame_index.QuerySignature(signature, kTopK, &stats);
    index_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    candidates.push_back(static_cast<double>(stats.candidates));
    probed.push_back(static_cast<double>(stats.probed));
  }
  probes->index_query_us = Percentile(index_us, 0.5);
  probes->candidates_per_query = Mean(candidates);
  probes->probed_per_query = Mean(probed);
}

void EmitLayerMetrics(const LayerProbes& p, RunResult* r) {
  r->Set("kernels.signature_us", p.signature_us, "us");
  r->Set("stream.decode_busy_s", p.decode_busy_s, "s");
  r->Set("stream.signature_busy_s", p.signature_busy_s, "s");
  r->Set("stream.sbd_busy_s", p.sbd_busy_s, "s");
  r->Set("stream.finalize_busy_s", p.finalize_busy_s, "s");
  r->Set("stream.frames_in_flight_max", p.frames_in_flight_max, "frames");
  r->Set("farm.threads_peak", p.farm_threads_peak, "threads");
  r->Set("farm.signature_steps", p.signature_steps, "count");
  r->Set("farm.fairness_min_max", p.fairness_min_max, "ratio");
  r->Set("committer.publishes", p.publishes, "count");
  r->Set("committer.reloads_ok", p.reloads_ok, "count");
  r->Set("committer.reloads_coalesced", p.reloads_coalesced, "count");
  r->Set("committer.publish_ms", p.publish_ms, "ms");
  r->Set("store.save_ms", p.save_ms, "ms");
  r->Set("index.build_ms", p.index_build_ms, "ms");
  r->Set("serve.reload_ms", p.reload_ms, "ms");
  const vdb::serve::Verb verbs[kNumKinds] = {vdb::serve::Verb::kQuery,
                                             vdb::serve::Verb::kQueryFrame,
                                             vdb::serve::Verb::kTree};
  for (int k = 0; k < kNumKinds; ++k) {
    const vdb::serve::VerbStats* row = FindVerb(p.front.verbs, verbs[k]);
    double server_us = row != nullptr ? row->p50_us : 0.0;
    r->Set(std::string("serve.server_us.") + KindName(k), server_us, "us");
    r->Set(std::string("serve.net_us.") + KindName(k),
           p.client_p50_us[k] > 0 ? p.client_p50_us[k] - server_us : 0.0,
           "us");
  }
  r->Set("serve.busy_rejects", static_cast<double>(p.front.rejected_busy),
         "count");
  r->Set("core.search_us", p.search_us, "us");
  r->Set("core.results_per_query", p.results_per_query, "count");
  r->Set("index.query_us", p.index_query_us, "us");
  r->Set("index.candidates_per_query", p.candidates_per_query, "count");
  r->Set("index.probed_per_query", p.probed_per_query, "count");
  r->Set("cluster.backend_calls_per_query", p.backend_calls_per_query,
         "count");
  r->Set("cluster.backend_calls_per_queryframe",
         p.backend_calls_per_queryframe, "count");
  r->Set("cluster.shard_call_us.query", p.shard_call_query_us, "us");
  r->Set("cluster.threads_peak", p.cluster_threads_peak, "threads");
  r->Set("cluster.degraded_responses", p.degraded, "count");
  r->Set("load.ops_attempted", static_cast<double>(p.ops_attempted), "count");
  r->Set("load.ops_failed", static_cast<double>(p.ops_failed), "count");
  r->Set("load.late_p99_ms", p.late_p99_ms, "ms");
  r->Set("trace.overhead_pct", p.trace_overhead_pct, "%");
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",          "peak_rss_mb",       "ingest_fps",
      "queryable_p50_ms", "queryable_p90_ms",  "query_p50_us",
      "queryframe_p50_us", "tree_p50_us"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "kernels.signature_us",
      "stream.decode_busy_s",
      "stream.signature_busy_s",
      "stream.sbd_busy_s",
      "stream.finalize_busy_s",
      "stream.frames_in_flight_max",
      "farm.threads_peak",
      "farm.signature_steps",
      "farm.fairness_min_max",
      "committer.publishes",
      "committer.reloads_ok",
      "committer.reloads_coalesced",
      "committer.publish_ms",
      "store.save_ms",
      "index.build_ms",
      "serve.reload_ms",
      "serve.server_us.query",
      "serve.server_us.queryframe",
      "serve.server_us.tree",
      "serve.net_us.query",
      "serve.net_us.queryframe",
      "serve.net_us.tree",
      "serve.busy_rejects",
      "core.search_us",
      "core.results_per_query",
      "index.query_us",
      "index.candidates_per_query",
      "index.probed_per_query",
      "cluster.backend_calls_per_query",
      "cluster.backend_calls_per_queryframe",
      "cluster.shard_call_us.query",
      "cluster.threads_peak",
      "cluster.degraded_responses",
      "load.ops_attempted",
      "load.ops_failed",
      "load.late_p99_ms",
      "trace.overhead_pct"};
  return names;
}

}  // namespace vdbperf
