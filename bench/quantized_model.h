#ifndef VDB_BENCH_QUANTIZED_MODEL_H_
#define VDB_BENCH_QUANTIZED_MODEL_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "core/variance_index.h"

namespace vdb {
namespace bench {

// The paper's Section 4.2 notes that "another common way to handle inexact
// queries is to do matching on quantized data". This is that alternative,
// modelled for bench_ablation_quantized (the library answers every query
// from VarianceIndex): the (D^v, sqrt(Var^BA)) plane is cut into square
// cells of side kCell = 2*alpha for the paper's alpha = beta = 1, keyed by
// floor(value / kCell), and a query returns the shots in its own cell —
// or, with `probe_neighbors`, in exactly the cells its +-alpha x +-beta
// band overlaps (per dimension the keys from floor((q - tol) / kCell) to
// floor((q + tol) / kCell)). Cell membership is
// the whole answer: no band filter, so border shots the banded model
// would return are missed by the own-cell probe, and the band-overlap
// probe returns extra ones.
class QuantizedModel {
 public:
  static constexpr double kCell = 2.0;

  explicit QuantizedModel(bool probe_neighbors = false)
      : probe_neighbors_(probe_neighbors) {}

  void Add(const IndexEntry& e) {
    cells_[Key(e.Dv(), e.SqrtVarBa())].push_back(e);
    ++size_;
  }

  int size() const { return size_; }
  int cell_count() const { return static_cast<int>(cells_.size()); }

  // The probed cells' shots by ascending distance; `cells_probed`
  // (optional) reports how many cell lookups the query cost.
  std::vector<QueryMatch> Query(const VarianceQuery& q,
                                int* cells_probed = nullptr) const {
    double q_dv = std::sqrt(q.var_ba) - std::sqrt(q.var_oa);
    double q_ba = std::sqrt(q.var_ba);
    std::pair<long, long> lo = Key(q_dv, q_ba);
    std::pair<long, long> hi = lo;
    if (probe_neighbors_) {
      double alpha = std::max(q.alpha, 0.0);
      double beta = std::max(q.beta, 0.0);
      lo = Key(q_dv - alpha, q_ba - beta);
      hi = Key(q_dv + alpha, q_ba + beta);
    }
    std::vector<QueryMatch> matches;
    int probed = 0;
    for (long dv = lo.first; dv <= hi.first; ++dv) {
      for (long ba = lo.second; ba <= hi.second; ++ba) {
        ++probed;
        auto it = cells_.find({dv, ba});
        if (it == cells_.end()) continue;
        for (const IndexEntry& e : it->second) {
          double d_dv = e.Dv() - q_dv;
          double d_ba = e.SqrtVarBa() - q_ba;
          matches.push_back(
              QueryMatch{e, std::sqrt(d_dv * d_dv + d_ba * d_ba)});
        }
      }
    }
    if (cells_probed != nullptr) *cells_probed = probed;
    std::sort(matches.begin(), matches.end(),
              [](const QueryMatch& a, const QueryMatch& b) {
                return a.distance < b.distance;
              });
    return matches;
  }

 private:
  std::pair<long, long> Key(double dv, double sqrt_ba) const {
    return {static_cast<long>(std::floor(dv / kCell)),
            static_cast<long>(std::floor(sqrt_ba / kCell))};
  }

  bool probe_neighbors_;
  std::map<std::pair<long, long>, std::vector<IndexEntry>> cells_;
  int size_ = 0;
};

}  // namespace bench
}  // namespace vdb

#endif  // VDB_BENCH_QUANTIZED_MODEL_H_
