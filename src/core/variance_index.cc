#include "core/variance_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

namespace vdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The grid's resolution: about this many points per cell over the points'
// bounding box. Derived from the data alone; no option tunes it.
constexpr size_t kPointsPerCell = 2;

// The widening loop's round limit (QueryTopKWhere doubles alpha and beta
// at most 63 times).
constexpr int kMaxRounds = 64;

double QueryDv(const VarianceQuery& q) {
  return std::sqrt(q.var_ba) - std::sqrt(q.var_oa);
}

// Euclidean distance in (D^v, sqrt(VarBA)) space. Every caller passes
// e.Dv() and e.SqrtVarBa() (or columns computed by them once), so each
// distance is bit-identical to a fresh computation from the entry.
double PointDistance(double dv, double sqrt_ba, double q_dv, double q_ba) {
  double d_dv = dv - q_dv;
  double d_ba = sqrt_ba - q_ba;
  return std::sqrt(d_dv * d_dv + d_ba * d_ba);
}

// Total order on matches: distance, then (video_id, shot_index). The id
// tie-break matters beyond aesthetics — a sharded deployment merges
// per-shard top-k lists and truncates, and that merge is only reproducible
// against a single-node answer if ties resolve the same way everywhere.
bool MatchLess(const QueryMatch& a, const QueryMatch& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.entry.video_id != b.entry.video_id) {
    return a.entry.video_id < b.entry.video_id;
  }
  return a.entry.shot_index < b.entry.shot_index;
}

bool DvLess(const IndexEntry& a, const IndexEntry& b) {
  return a.Dv() < b.Dv();
}

// Equations 7 and 8 for one tolerance pair, compared exactly as
// QueryLinear compares them.
struct Band {
  double dv_lo;
  double dv_hi;
  double ba_lo;
  double ba_hi;

  Band(double q_dv, double q_ba, double alpha, double beta)
      : dv_lo(q_dv - alpha),
        dv_hi(q_dv + alpha),
        ba_lo(q_ba - beta),
        ba_hi(q_ba + beta) {}

  bool Contains(double dv, double sqrt_ba) const {
    return dv >= dv_lo && dv <= dv_hi && sqrt_ba >= ba_lo && sqrt_ba <= ba_hi;
  }
  // No point can be inside (a negative or NaN tolerance, or a NaN query).
  bool Empty() const { return !(dv_lo <= dv_hi && ba_lo <= ba_hi); }
};

// Tight bounds of a set of points. Pruning compares the points' own
// extremes, never a cell's nominal edges, so rounding in the bucketing can
// cost speed but never a match.
struct Box {
  double dv_min = kInf;
  double dv_max = -kInf;
  double ba_min = kInf;
  double ba_max = -kInf;

  void Add(double dv, double sqrt_ba) {
    dv_min = std::min(dv_min, dv);
    dv_max = std::max(dv_max, dv);
    ba_min = std::min(ba_min, sqrt_ba);
    ba_max = std::max(ba_max, sqrt_ba);
  }
  bool Disjoint(const Band& b) const {
    return dv_max < b.dv_lo || dv_min > b.dv_hi || ba_max < b.ba_lo ||
           ba_min > b.ba_hi;
  }
  bool Inside(const Band& b) const {
    return dv_min >= b.dv_lo && dv_max <= b.dv_hi && ba_min >= b.ba_lo &&
           ba_max <= b.ba_hi;
  }
};

// The cell of `v` along one axis. Monotone in `v` (infinities clamp to the
// edge cells), so the cells a band [lo, hi] overlaps are exactly
// Bucket(lo)..Bucket(hi).
int Bucket(double v, double origin, double scale, int cells) {
  double t = (v - origin) * scale;
  if (!(t > 0)) return 0;
  if (t >= cells) return cells - 1;
  return static_cast<int>(t);
}

// Accepts every entry (the unfiltered band probe).
struct AcceptAll {
  bool operator()(const IndexEntry&) const { return true; }
};

}  // namespace

// The frozen table: the rows' (D^v, sqrt(Var^BA)) columns, bucketed cell by
// cell into a uniform nx-by-ny grid over the points' bounding box. Within
// a cell, points are ordered by (D^v, sqrt(Var^BA), video, shot), so shots
// sharing their features exactly form one run in MatchLess order. Points
// with a NaN coordinate satisfy no band and are left out. (An infinite
// coordinate, which no analysed video produces, only degrades the grid to
// one cell along its axis.)
struct VarianceIndex::Frozen {
  int nx = 1;
  int ny = 1;
  double dv_origin = 0.0;
  double ba_origin = 0.0;
  double dv_scale = 0.0;
  double ba_scale = 0.0;
  // Cell (x, y) is c = y * nx + x and holds columns
  // [cell_start[c], cell_start[c + 1]).
  std::vector<uint32_t> cell_start;
  std::vector<Box> cell_box;
  Box bounds;  // of every point
  // Per grid column x: the least D^v in columns x.. and the greatest in
  // columns ..x (likewise per row for sqrt(Var^BA)). Buckets are
  // monotone, so these bound every point beyond x on either side.
  std::vector<double> dv_from;
  std::vector<double> dv_upto;
  std::vector<double> ba_from;
  std::vector<double> ba_upto;
  std::vector<double> dv;
  std::vector<double> sqrt_ba;
  std::vector<IndexEntry> entry;

  explicit Frozen(const std::vector<IndexEntry>& rows);

  // No later (wider) band can hold a point this one does not.
  bool Covers(const Band& band) const { return bounds.Inside(band); }

  size_t Cell(int x, int y) const {
    return static_cast<size_t>(y) * static_cast<size_t>(nx) +
           static_cast<size_t>(x);
  }

  // The cells a non-empty band overlaps: columns x0..x1, rows y0..y1.
  struct Span {
    int x0, x1, y0, y1;
  };
  Span SpanOf(const Band& band) const {
    return Span{Bucket(band.dv_lo, dv_origin, dv_scale, nx),
                Bucket(band.dv_hi, dv_origin, dv_scale, nx),
                Bucket(band.ba_lo, ba_origin, ba_scale, ny),
                Bucket(band.ba_hi, ba_origin, ba_scale, ny)};
  }

  // How many in-band entries `keep` accepts: unfiltered, a cell whose
  // tight box lies inside the band counts whole; any other overlapping
  // cell is filtered entry by entry.
  template <typename Keep>
  int64_t Count(const Band& band, const Keep& keep) const {
    constexpr bool keep_all = std::is_same_v<Keep, AcceptAll>;
    int64_t count = 0;
    if (band.Empty()) return count;
    const Span s = SpanOf(band);
    for (int y = s.y0; y <= s.y1; ++y) {
      for (int x = s.x0; x <= s.x1; ++x) {
        size_t c = Cell(x, y);
        uint32_t begin = cell_start[c];
        uint32_t end = cell_start[c + 1];
        if (begin == end || cell_box[c].Disjoint(band)) continue;
        bool inside = cell_box[c].Inside(band);
        if (inside && keep_all) {
          count += end - begin;
          continue;
        }
        for (uint32_t i = begin; i < end; ++i) {
          if ((inside || band.Contains(dv[i], sqrt_ba[i])) &&
              keep(entry[i])) {
            ++count;
          }
        }
      }
    }
    return count;
  }

  // The k best (MatchLess) in-band entries that `keep` accepts, best
  // first, into *top; returns how many in-band accepted entries it saw,
  // which is the band's whole count when fewer than k were found.
  //
  // Cells are visited best-first from the query's cell, in ascending order
  // of a lower bound on their points' distance built from the column and
  // row bounds (rounding is monotone, so no point's computed distance is
  // below it). Each cell is reached once, along its row to its column and
  // then up or down the column, and the bound never falls along that
  // path; so once k entries are held and the next bound exceeds the k-th
  // distance, no unvisited cell can hold a better match. (A bound equal
  // to the k-th distance is still visited: a tie may win on (video,
  // shot).)
  template <typename Keep>
  int64_t Select(const Band& band, double q_dv, double q_ba, size_t k,
                 const Keep& keep, std::vector<QueryMatch>* top) const {
    top->clear();
    if (band.Empty() || k == 0) return 0;
    int64_t count = 0;
    auto full = [&] { return top->size() >= k; };
    // Offers one accepted entry; false when it cannot enter the top-k.
    auto offer = [&](uint32_t i) {
      double d = PointDistance(dv[i], sqrt_ba[i], q_dv, q_ba);
      if (!full()) {
        top->push_back(QueryMatch{entry[i], d});
        std::push_heap(top->begin(), top->end(), MatchLess);
        return true;
      }
      if (d > top->front().distance) return false;
      QueryMatch m{entry[i], d};
      if (!MatchLess(m, top->front())) return false;
      std::pop_heap(top->begin(), top->end(), MatchLess);
      top->back() = m;
      std::push_heap(top->begin(), top->end(), MatchLess);
      return true;
    };
    const auto [x0, x1, y0, y1] = SpanOf(band);
    int qx = std::clamp(Bucket(q_dv, dv_origin, dv_scale, nx), x0, x1);
    int qy = std::clamp(Bucket(q_ba, ba_origin, ba_scale, ny), y0, y1);
    auto gap = [](const std::vector<double>& from,
                  const std::vector<double>& upto, int at, int q_at,
                  double q) {
      if (at > q_at) return from[at] > q ? from[at] - q : 0.0;
      if (at < q_at) return upto[at] < q ? q - upto[at] : 0.0;
      return 0.0;
    };
    struct Step {
      double bound;
      int x;
      int y;
    };
    auto farther = [](const Step& a, const Step& b) {
      return a.bound > b.bound;
    };
    std::vector<Step> frontier;
    auto push = [&](int x, int y) {
      double g_dv = gap(dv_from, dv_upto, x, qx, q_dv);
      double g_ba = gap(ba_from, ba_upto, y, qy, q_ba);
      double bound = std::sqrt(g_dv * g_dv + g_ba * g_ba);
      if (full() && bound > top->front().distance) return;
      frontier.push_back(Step{bound, x, y});
      std::push_heap(frontier.begin(), frontier.end(), farther);
    };
    push(qx, qy);
    while (!frontier.empty()) {
      std::pop_heap(frontier.begin(), frontier.end(), farther);
      Step step = frontier.back();
      frontier.pop_back();
      if (full() && step.bound > top->front().distance) break;
      if (step.y == qy) {
        if (step.x <= qx && step.x > x0) push(step.x - 1, step.y);
        if (step.x >= qx && step.x < x1) push(step.x + 1, step.y);
      }
      if (step.y <= qy && step.y > y0) push(step.x, step.y - 1);
      if (step.y >= qy && step.y < y1) push(step.x, step.y + 1);

      size_t c = Cell(step.x, step.y);
      uint32_t begin = cell_start[c];
      uint32_t end = cell_start[c + 1];
      if (begin == end || cell_box[c].Disjoint(band)) continue;
      bool inside = cell_box[c].Inside(band);
      for (uint32_t i = begin; i < end; ++i) {
        if (!inside && !band.Contains(dv[i], sqrt_ba[i])) continue;
        if (!keep(entry[i])) continue;
        ++count;
        if (offer(i)) continue;
        // Rejected with the top-k full: the rest of this run of equal
        // features ties on distance with larger (video, shot), so it
        // cannot enter either.
        while (i + 1 < end && dv[i + 1] == dv[i] &&
               sqrt_ba[i + 1] == sqrt_ba[i]) {
          ++i;
        }
      }
    }
    std::sort_heap(top->begin(), top->end(), MatchLess);
    return count;
  }
};

VarianceIndex::Frozen::Frozen(const std::vector<IndexEntry>& rows) {
  const size_t n = rows.size();
  std::vector<double> row_dv(n);
  std::vector<double> row_ba(n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    row_dv[i] = rows[i].Dv();
    row_ba[i] = rows[i].SqrtVarBa();
    if (!std::isnan(row_dv[i]) && !std::isnan(row_ba[i])) {
      bounds.Add(row_dv[i], row_ba[i]);
      ++kept;
    }
  }

  // Shape: about kPointsPerCell points per cell, the cells as square as
  // the bounding box allows. A degenerate or infinite extent gets one
  // cell along that axis.
  const int cells = static_cast<int>(
      std::clamp<size_t>(kept / kPointsPerCell, 1, size_t{1} << 22));
  double dv_extent = bounds.dv_max - bounds.dv_min;
  double ba_extent = bounds.ba_max - bounds.ba_min;
  bool dv_spread = dv_extent > 0 && std::isfinite(dv_extent);
  bool ba_spread = ba_extent > 0 && std::isfinite(ba_extent);
  if (dv_spread && ba_spread) {
    double want = std::sqrt(cells * (dv_extent / ba_extent));
    nx = want >= cells ? cells : (want >= 1 ? static_cast<int>(want) : 1);
    ny = std::max(1, cells / nx);
  } else if (dv_spread) {
    nx = cells;
  } else if (ba_spread) {
    ny = cells;
  }
  if (nx > 1) {
    dv_origin = bounds.dv_min;
    dv_scale = nx / dv_extent;
  }
  if (ny > 1) {
    ba_origin = bounds.ba_min;
    ba_scale = ny / ba_extent;
  }

  // Counting sort of the row numbers into cells, then each cell into
  // (D^v, sqrt(Var^BA), video, shot) order.
  const size_t cell_count = Cell(0, ny);
  std::vector<uint32_t> cell_of(n);
  cell_start.assign(cell_count + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(row_dv[i]) || std::isnan(row_ba[i])) continue;
    size_t c = Cell(Bucket(row_dv[i], dv_origin, dv_scale, nx),
                    Bucket(row_ba[i], ba_origin, ba_scale, ny));
    cell_of[i] = static_cast<uint32_t>(c);
    ++cell_start[c + 1];
  }
  for (size_t c = 0; c < cell_count; ++c) {
    cell_start[c + 1] += cell_start[c];
  }
  std::vector<uint32_t> order(kept);
  std::vector<uint32_t> next(cell_start.begin(), cell_start.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(row_dv[i]) || std::isnan(row_ba[i])) continue;
    order[next[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
  auto run_order = [&](uint32_t a, uint32_t b) {
    if (row_dv[a] != row_dv[b]) return row_dv[a] < row_dv[b];
    if (row_ba[a] != row_ba[b]) return row_ba[a] < row_ba[b];
    if (rows[a].video_id != rows[b].video_id) {
      return rows[a].video_id < rows[b].video_id;
    }
    return rows[a].shot_index < rows[b].shot_index;
  };
  cell_box.resize(cell_count);
  dv.resize(order.size());
  sqrt_ba.resize(order.size());
  entry.resize(order.size());
  for (size_t c = 0; c < cell_count; ++c) {
    std::sort(order.begin() + cell_start[c], order.begin() + cell_start[c + 1],
              run_order);
  }
  for (size_t at = 0; at < order.size(); ++at) {
    dv[at] = row_dv[order[at]];
    sqrt_ba[at] = row_ba[order[at]];
    entry[at] = rows[order[at]];
  }

  // Tight bounds per cell, and the column and row bounds the best-first
  // visit steers by.
  dv_from.assign(static_cast<size_t>(nx), kInf);
  dv_upto.assign(static_cast<size_t>(nx), -kInf);
  ba_from.assign(static_cast<size_t>(ny), kInf);
  ba_upto.assign(static_cast<size_t>(ny), -kInf);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      size_t c = Cell(x, y);
      Box& box = cell_box[c];
      for (uint32_t i = cell_start[c]; i < cell_start[c + 1]; ++i) {
        box.Add(dv[i], sqrt_ba[i]);
      }
      dv_from[x] = std::min(dv_from[x], box.dv_min);
      dv_upto[x] = std::max(dv_upto[x], box.dv_max);
      ba_from[y] = std::min(ba_from[y], box.ba_min);
      ba_upto[y] = std::max(ba_upto[y], box.ba_max);
    }
  }
  for (int x = nx - 2; x >= 0; --x) {
    dv_from[x] = std::min(dv_from[x], dv_from[x + 1]);
  }
  for (int x = 1; x < nx; ++x) {
    dv_upto[x] = std::max(dv_upto[x], dv_upto[x - 1]);
  }
  for (int y = ny - 2; y >= 0; --y) {
    ba_from[y] = std::min(ba_from[y], ba_from[y + 1]);
  }
  for (int y = 1; y < ny; ++y) {
    ba_upto[y] = std::max(ba_upto[y], ba_upto[y - 1]);
  }
}

VarianceIndex::VarianceIndex() = default;
VarianceIndex::~VarianceIndex() = default;

VarianceIndex::VarianceIndex(VarianceIndex&& other) noexcept
    : rows_(std::move(other.rows_)),
      sorted_(other.sorted_),
      frozen_owner_(std::move(other.frozen_owner_)),
      frozen_(other.frozen_.exchange(nullptr)) {
  other.rows_.clear();
  other.sorted_ = true;
}

VarianceIndex& VarianceIndex::operator=(VarianceIndex&& other) noexcept {
  if (this != &other) {
    rows_ = std::move(other.rows_);
    sorted_ = other.sorted_;
    frozen_owner_ = std::move(other.frozen_owner_);
    frozen_.store(other.frozen_.exchange(nullptr));
    other.rows_.clear();
    other.sorted_ = true;
  }
  return *this;
}

double IndexEntry::SqrtVarBa() const { return std::sqrt(var_ba); }

double IndexEntry::Dv() const {
  return std::sqrt(var_ba) - std::sqrt(var_oa);
}

void VarianceIndex::Thaw() {
  frozen_.store(nullptr, std::memory_order_relaxed);
  frozen_owner_.reset();
}

void VarianceIndex::Add(const IndexEntry& entry) {
  Thaw();
  rows_.push_back(entry);
  sorted_ = false;
}

void VarianceIndex::AddVideo(int video_id,
                             const std::vector<ShotFeatures>& features) {
  Thaw();
  size_t mid = rows_.size();
  for (size_t i = 0; i < features.size(); ++i) {
    rows_.push_back(IndexEntry{video_id, static_cast<int>(i),
                               features[i].var_ba, features[i].var_oa});
  }
  if (!sorted_) return;  // a full sort is already owed
  // Incremental per-video update: stably sort just the new rows and merge
  // them in. stable_sort(old ++ new) with a sorted old prefix is exactly
  // inplace_merge(old, stable_sort(new)) — both keep equal-D^v rows in
  // insertion order with old before new — so the table is bit-identical
  // to a full rebuild (asserted in variance_index_test) at O(m log m + n)
  // per video instead of O((n+m) log (n+m)).
  std::stable_sort(rows_.begin() + static_cast<ptrdiff_t>(mid), rows_.end(),
                   DvLess);
  std::inplace_merge(rows_.begin(),
                     rows_.begin() + static_cast<ptrdiff_t>(mid), rows_.end(),
                     DvLess);
}

const VarianceIndex::Frozen& VarianceIndex::frozen() const {
  const Frozen* f = frozen_.load(std::memory_order_acquire);
  return f != nullptr ? *f : FreezeSlow();
}

const VarianceIndex::Frozen& VarianceIndex::FreezeSlow() const {
  std::lock_guard<std::mutex> lock(freeze_mu_);
  if (const Frozen* f = frozen_.load(std::memory_order_acquire)) return *f;
  if (!sorted_) {
    std::stable_sort(rows_.begin(), rows_.end(), DvLess);
    sorted_ = true;
  }
  frozen_owner_ = std::make_unique<const Frozen>(rows_);
  frozen_.store(frozen_owner_.get(), std::memory_order_release);
  return *frozen_owner_;
}

const std::vector<IndexEntry>& VarianceIndex::entries() const {
  frozen();  // settles the D^v sort
  return rows_;
}

std::vector<QueryMatch> VarianceIndex::Query(
    const VarianceQuery& query) const {
  return QueryBand(query, size(), {}, nullptr);
}

std::vector<QueryMatch> VarianceIndex::QueryBand(
    const VarianceQuery& query, int k,
    const std::function<bool(const IndexEntry&)>& keep,
    int64_t* in_band) const {
  const Frozen& f = frozen();
  double q_dv = QueryDv(query);
  double q_ba = std::sqrt(query.var_ba);
  Band band(q_dv, q_ba, query.alpha, query.beta);
  size_t want = static_cast<size_t>(std::max(k, 0));
  std::vector<QueryMatch> top;
  int64_t count = keep ? f.Select(band, q_dv, q_ba, want, keep, &top)
                       : f.Select(band, q_dv, q_ba, want, AcceptAll{}, &top);
  if (in_band != nullptr) {
    // Select counted the whole band only if it found fewer than k.
    if (top.size() >= want) {
      count = keep ? f.Count(band, keep) : f.Count(band, AcceptAll{});
    }
    *in_band = count;
  }
  return top;
}

std::vector<QueryMatch> VarianceIndex::QueryLinear(
    const VarianceQuery& query) const {
  frozen();  // settles the D^v sort, so the rows are not moving
  double dv = QueryDv(query);
  double sqrt_ba = std::sqrt(query.var_ba);
  std::vector<QueryMatch> matches;
  for (const IndexEntry& e : rows_) {
    if (e.Dv() >= dv - query.alpha && e.Dv() <= dv + query.alpha &&
        e.SqrtVarBa() >= sqrt_ba - query.beta &&
        e.SqrtVarBa() <= sqrt_ba + query.beta) {
      matches.push_back(
          QueryMatch{e, PointDistance(e.Dv(), e.SqrtVarBa(), dv, sqrt_ba)});
    }
  }
  std::sort(matches.begin(), matches.end(), MatchLess);
  return matches;
}

// The widening loop answers with the first round whose band holds k
// accepted entries (or max_matching of them), else with the last round's
// band. Each round here is one nearest-first Select that stops as soon as
// its top-k is settled, and the loop ends early once a wider band could
// not change the answer: doubling leaves alpha and beta as they are (0 or
// infinity), or the band already holds every point. (A tolerance below
// the rounding of the query's coordinates can leave one round's band
// unchanged and still widen it in a later round, so the band itself is
// not the test.)
template <typename Keep>
std::vector<QueryMatch> VarianceIndex::WidenTopK(const VarianceQuery& query,
                                                 int k, const Keep& keep,
                                                 int64_t max_matching) const {
  std::vector<QueryMatch> top;
  if (k <= 0) return top;
  const Frozen& f = frozen();
  double q_dv = QueryDv(query);
  double q_ba = std::sqrt(query.var_ba);
  double alpha = query.alpha;
  double beta = query.beta;
  size_t want = static_cast<size_t>(k);
  for (int round = 0; round < kMaxRounds; ++round) {
    Band band(q_dv, q_ba, alpha, beta);
    int64_t count = f.Select(band, q_dv, q_ba, want, keep, &top);
    if (top.size() >= want || count >= max_matching) break;
    if (f.Covers(band)) break;
    if (alpha * 2.0 == alpha && beta * 2.0 == beta) break;
    alpha *= 2.0;
    beta *= 2.0;
  }
  return top;
}

std::vector<QueryMatch> VarianceIndex::QueryTopKWhere(
    const VarianceQuery& query, int k,
    const std::function<bool(const IndexEntry&)>& keep,
    int max_matching) const {
  return WidenTopK(query, k, keep, max_matching);
}

std::vector<QueryMatch> VarianceIndex::QueryTopK(const VarianceQuery& query,
                                                 int k, int exclude_video,
                                                 int exclude_shot) const {
  int max_possible = exclude_video >= 0 ? size() - 1 : size();
  return WidenTopK(
      query, k,
      [exclude_video, exclude_shot](const IndexEntry& e) {
        return !(e.video_id == exclude_video &&
                 e.shot_index == exclude_shot);
      },
      max_possible);
}

}  // namespace vdb
