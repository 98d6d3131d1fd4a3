#ifndef VDB_CORE_VARIANCE_INDEX_H_
#define VDB_CORE_VARIANCE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/features.h"
#include "util/result.h"

namespace vdb {

// One row of the paper's index table (Table 4): a shot of some video with
// its variance features.
struct IndexEntry {
  int video_id = -1;
  int shot_index = -1;
  double var_ba = 0.0;
  double var_oa = 0.0;

  double SqrtVarBa() const;
  double Dv() const;  // sqrt(Var^BA) - sqrt(Var^OA)
};

// An impression query (Section 4.2): how much things are changing in the
// background and object areas, with tolerances.
struct VarianceQuery {
  double var_ba = 0.0;
  double var_oa = 0.0;
  double alpha = 1.0;  // tolerance on D^v        (Equation 7)
  double beta = 1.0;   // tolerance on sqrt(VarBA) (Equation 8)
};

// A match with its distance from the query in (D^v, sqrt(VarBA)) space.
struct QueryMatch {
  IndexEntry entry;
  double distance = 0.0;
};

// The variance-based similarity index. Writes (Add, AddVideo) append rows;
// the first read after a write freezes the table: D^v and sqrt(Var^BA) are
// computed once into columns and bucketed into a uniform grid over
// (D^v, sqrt(Var^BA)) with tight per-cell bounds. Every read is answered
// from that frozen grid: a band query visits only the cells the band
// overlaps, filters the border cells by Equations 7 and 8 exactly, and a
// top-k visits cells nearest-first and stops once no closer cell remains.
// Answers are identical to a linear scan (QueryLinear) plus the widening
// loop, down to the bits of every distance and the (video, shot) order of
// ties.
//
// Thread safety: const operations (all Query variants, size, entries) are
// safe to call concurrently with each other and take no lock once the
// table is frozen; Add/AddVideo must not race with them.
class VarianceIndex {
 public:
  VarianceIndex();
  ~VarianceIndex();

  // Movable (not while another thread reads either side); not copyable.
  VarianceIndex(VarianceIndex&& other) noexcept;
  VarianceIndex& operator=(VarianceIndex&& other) noexcept;
  VarianceIndex(const VarianceIndex&) = delete;
  VarianceIndex& operator=(const VarianceIndex&) = delete;

  // Adds one shot. Entries may arrive in any order; the table is re-sorted
  // in full when it is next frozen.
  void Add(const IndexEntry& entry);

  // Adds every shot of a video. When the table is currently sorted this is
  // the incremental path — the new rows are sorted on their own and stably
  // merged in, bit-identical to a full rebuild but without re-sorting the
  // whole table — so both batch and streaming ingest pay O(m log m + n)
  // per video, not O((n+m) log (n+m)).
  void AddVideo(int video_id, const std::vector<ShotFeatures>& features);

  int size() const { return static_cast<int>(rows_.size()); }

  // All shots satisfying Equations 7 and 8, ordered by ascending distance
  // (Euclidean in (D^v, sqrt(VarBA)) space), ties by (video, shot).
  std::vector<QueryMatch> Query(const VarianceQuery& query) const;

  // The k nearest shots strictly inside the band — no widening — in Query
  // order, plus (`in_band`, optional) how many shots the band holds. A
  // non-empty `keep` restricts both to the entries it accepts. This is the
  // fixed-band probe a distributed widening loop needs.
  std::vector<QueryMatch> QueryBand(
      const VarianceQuery& query, int k,
      const std::function<bool(const IndexEntry&)>& keep,
      int64_t* in_band) const;

  // The k nearest shots regardless of the tolerance band (used for the
  // paper's "three most similar shots" figures). Shots matching the band
  // are preferred; the band is widened (alpha and beta doubled) until k
  // matches exist or the index is exhausted. `exclude_video`/`exclude_shot`
  // skip the query shot itself when querying by example (-1 to disable).
  std::vector<QueryMatch> QueryTopK(const VarianceQuery& query, int k,
                                    int exclude_video = -1,
                                    int exclude_shot = -1) const;

  // Like QueryTopK but keeps only entries for which `keep` returns true
  // (class-filtered retrieval, Section 4.1). `max_matching` bounds how
  // many index entries can satisfy the predicate at all — the band stops
  // widening once that many are found (pass size() when unknown).
  std::vector<QueryMatch> QueryTopKWhere(
      const VarianceQuery& query, int k,
      const std::function<bool(const IndexEntry&)>& keep,
      int max_matching) const;

  // Linear-scan variant of Query: the reference the grid is checked
  // against, and the bench's baseline.
  std::vector<QueryMatch> QueryLinear(const VarianceQuery& query) const;

  // Every row, stably sorted by D^v (insertion order among equal D^v).
  const std::vector<IndexEntry>& entries() const;

 private:
  struct Frozen;

  // The frozen grid of the current rows, built by the first read after a
  // write (the only read that takes a lock).
  const Frozen& frozen() const;
  const Frozen& FreezeSlow() const;
  void Thaw();

  template <typename Keep>
  std::vector<QueryMatch> WidenTopK(const VarianceQuery& query, int k,
                                    const Keep& keep,
                                    int64_t max_matching) const;

  // Sorted by D^v whenever `sorted_`; FreezeSlow sorts them otherwise.
  mutable std::vector<IndexEntry> rows_;
  mutable bool sorted_ = true;
  mutable std::mutex freeze_mu_;
  mutable std::unique_ptr<const Frozen> frozen_owner_;
  mutable std::atomic<const Frozen*> frozen_{nullptr};
};

}  // namespace vdb

#endif  // VDB_CORE_VARIANCE_INDEX_H_
