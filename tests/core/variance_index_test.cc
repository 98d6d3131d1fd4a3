#include "core/variance_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace vdb {
namespace {

IndexEntry Entry(int video, int shot, double var_ba, double var_oa) {
  return IndexEntry{video, shot, var_ba, var_oa};
}

TEST(IndexEntryTest, DerivedValues) {
  IndexEntry e = Entry(0, 0, 16.0, 9.0);
  EXPECT_DOUBLE_EQ(e.SqrtVarBa(), 4.0);
  EXPECT_DOUBLE_EQ(e.Dv(), 1.0);
}

TEST(VarianceIndexTest, ExactMatchIsReturnedFirst) {
  VarianceIndex index;
  index.Add(Entry(0, 0, 16.0, 9.0));
  index.Add(Entry(0, 1, 100.0, 100.0));
  index.Add(Entry(0, 2, 0.0, 0.0));

  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> matches = index.Query(q);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].entry.shot_index, 0);
  EXPECT_DOUBLE_EQ(matches[0].distance, 0.0);
}

TEST(VarianceIndexTest, Equation7And8Band) {
  VarianceIndex index;
  // Query: var_ba = 16 (sqrt 4), var_oa = 9 (sqrt 3) -> Dv = 1.
  // Candidate A: Dv = 1.9, sqrtBa = 4.9 -> inside both bands (alpha=beta=1).
  index.Add(Entry(0, 0, 4.9 * 4.9, 3.0 * 3.0));
  // Candidate B: Dv = 2.1 -> outside Equation 7.
  index.Add(Entry(0, 1, 5.1 * 5.1, 3.0 * 3.0));
  // Candidate C: Dv = 1.0 but sqrtBa = 5.5 -> outside Equation 8.
  index.Add(Entry(0, 2, 5.5 * 5.5, 4.5 * 4.5));

  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> matches = index.Query(q);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].entry.shot_index, 0);
}

TEST(VarianceIndexTest, MatchesSortedByDistance) {
  VarianceIndex index;
  index.Add(Entry(0, 0, 16.0, 9.0));
  index.Add(Entry(0, 1, 17.0, 9.0));
  index.Add(Entry(0, 2, 20.0, 9.0));
  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> matches = index.Query(q);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance, matches[i].distance);
  }
  EXPECT_EQ(matches[0].entry.shot_index, 0);
}

// Property: the sorted-index query agrees with a linear scan.
class IndexVsLinearTest : public testing::TestWithParam<int> {};

TEST_P(IndexVsLinearTest, SameResults) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  VarianceIndex index;
  for (int i = 0; i < 200; ++i) {
    index.Add(Entry(i % 3, i, rng.NextDouble(0.0, 400.0),
                    rng.NextDouble(0.0, 400.0)));
  }
  for (int trial = 0; trial < 20; ++trial) {
    VarianceQuery q;
    q.var_ba = rng.NextDouble(0.0, 400.0);
    q.var_oa = rng.NextDouble(0.0, 400.0);
    q.alpha = rng.NextDouble(0.2, 3.0);
    q.beta = rng.NextDouble(0.2, 3.0);
    std::vector<QueryMatch> fast = index.Query(q);
    std::vector<QueryMatch> slow = index.QueryLinear(q);
    ASSERT_EQ(fast.size(), slow.size()) << "trial " << trial;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_DOUBLE_EQ(fast[i].distance, slow[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexVsLinearTest, testing::Range(0, 8));

TEST(VarianceIndexTest, AddVideoIndexesEveryShot) {
  VarianceIndex index;
  std::vector<ShotFeatures> features(5);
  for (int i = 0; i < 5; ++i) {
    features[static_cast<size_t>(i)].var_ba = 10.0 * i;
    features[static_cast<size_t>(i)].var_oa = 1.0;
  }
  index.AddVideo(3, features);
  EXPECT_EQ(index.size(), 5);
  for (const IndexEntry& e : index.entries()) {
    EXPECT_EQ(e.video_id, 3);
  }
}

// The streaming-ingest invariant: AddVideo onto an already-sorted index
// takes the incremental merge path, and its result must be bit-identical —
// same entries in the same order — to rebuilding the whole table from
// scratch with one lazy sort at the end.
TEST(VarianceIndexTest, IncrementalAddVideoMatchesFullRebuild) {
  Pcg32 rng(20260806);
  std::vector<std::vector<ShotFeatures>> videos(6);
  const int sizes[] = {5, 17, 3, 29, 8, 1};
  for (size_t v = 0; v < videos.size(); ++v) {
    videos[v].resize(static_cast<size_t>(sizes[v]));
    for (ShotFeatures& f : videos[v]) {
      f.var_ba = rng.NextDouble(0.0, 400.0);
      f.var_oa = rng.NextDouble(0.0, 400.0);
    }
  }
  // Exact D^v ties across videos, so stability of the merge is observable.
  videos[4] = videos[1];

  // Incremental: a query between AddVideo calls forces the sort, so every
  // subsequent AddVideo exercises the sorted inplace-merge path.
  VarianceIndex incremental;
  for (size_t v = 0; v < videos.size(); ++v) {
    incremental.AddVideo(static_cast<int>(v), videos[v]);
    incremental.Query(VarianceQuery{});
  }

  VarianceIndex rebuilt;
  for (size_t v = 0; v < videos.size(); ++v) {
    rebuilt.AddVideo(static_cast<int>(v), videos[v]);
  }
  rebuilt.Query(VarianceQuery{});

  ASSERT_EQ(incremental.size(), rebuilt.size());
  const std::vector<IndexEntry>& a = incremental.entries();
  const std::vector<IndexEntry>& b = rebuilt.entries();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].video_id, b[i].video_id) << "row " << i;
    EXPECT_EQ(a[i].shot_index, b[i].shot_index) << "row " << i;
    EXPECT_EQ(a[i].var_ba, b[i].var_ba) << "row " << i;
    EXPECT_EQ(a[i].var_oa, b[i].var_oa) << "row " << i;
  }
}

TEST(QueryTopKTest, WidensBandUntilKFound) {
  VarianceIndex index;
  index.Add(Entry(0, 0, 0.0, 0.0));
  index.Add(Entry(0, 1, 400.0, 0.0));   // Dv = 20
  index.Add(Entry(0, 2, 1600.0, 0.0));  // Dv = 40
  VarianceQuery q;  // Dv = 0, alpha = 1: only shot 0 is in band
  std::vector<QueryMatch> top = index.QueryTopK(q, 3);
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].entry.shot_index, 0);
  EXPECT_EQ(top[1].entry.shot_index, 1);
  EXPECT_EQ(top[2].entry.shot_index, 2);
}

TEST(QueryTopKTest, ExcludesQueryShot) {
  VarianceIndex index;
  index.Add(Entry(0, 0, 16.0, 9.0));
  index.Add(Entry(0, 1, 16.1, 9.0));
  index.Add(Entry(1, 0, 16.2, 9.0));
  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> top = index.QueryTopK(q, 2, /*exclude_video=*/0,
                                                /*exclude_shot=*/0);
  ASSERT_EQ(top.size(), 2u);
  for (const QueryMatch& m : top) {
    EXPECT_FALSE(m.entry.video_id == 0 && m.entry.shot_index == 0);
  }
}

TEST(QueryTopKTest, TruncatesToK) {
  VarianceIndex index;
  for (int i = 0; i < 10; ++i) {
    index.Add(Entry(0, i, 16.0 + 0.01 * i, 9.0));
  }
  EXPECT_EQ(index.QueryTopK(VarianceQuery{16.0, 9.0, 1.0, 1.0}, 4).size(),
            4u);
}

TEST(VarianceIndexTest, EmptyIndexReturnsNothing) {
  VarianceIndex index;
  EXPECT_TRUE(index.Query(VarianceQuery{}).empty());
  EXPECT_TRUE(index.QueryTopK(VarianceQuery{}, 5).empty());
}

TEST(VarianceIndexTest, ConcurrentConstQueriesAreSafe) {
  // The first Query after Add performs the lazy sort; racing const queries
  // from many threads must all see a consistent index.
  Pcg32 rng(99);
  VarianceIndex index;
  for (int i = 0; i < 500; ++i) {
    index.Add(Entry(0, i, rng.NextDouble(0, 100), rng.NextDouble(0, 100)));
  }
  std::vector<std::thread> threads;
  std::atomic<int> total_matches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&index, &total_matches, t] {
      Pcg32 local(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < 50; ++i) {
        VarianceQuery q;
        q.var_ba = local.NextDouble(0, 100);
        q.var_oa = local.NextDouble(0, 100);
        total_matches += static_cast<int>(index.Query(q).size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Deterministic check afterwards: sorted result still matches linear.
  VarianceQuery q;
  q.var_ba = 50;
  q.var_oa = 50;
  EXPECT_EQ(index.Query(q).size(), index.QueryLinear(q).size());
}

TEST(VarianceIndexTest, MoveTransfersEntries) {
  VarianceIndex a;
  a.Add(Entry(0, 0, 16.0, 9.0));
  VarianceIndex b = std::move(a);
  EXPECT_EQ(b.size(), 1);
  VarianceIndex c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 1);
  EXPECT_EQ(c.Query(VarianceQuery{16.0, 9.0, 1.0, 1.0}).size(), 1u);
}

// Several readers query one frozen index while another thread keeps
// writing to (and re-freezing) a second one: the lock-free read path may
// share nothing between instances.
TEST(VarianceIndexTest, FrozenSnapshotQueriesWhileAnotherIndexIngests) {
  Pcg32 rng(4242);
  VarianceIndex snapshot;
  for (int i = 0; i < 2000; ++i) {
    snapshot.Add(Entry(i % 50, i, rng.NextDouble(0, 400),
                       rng.NextDouble(0, 400)));
  }
  std::vector<VarianceQuery> queries;
  std::vector<std::vector<QueryMatch>> expected;
  for (int i = 0; i < 16; ++i) {
    VarianceQuery q{rng.NextDouble(0, 400), rng.NextDouble(0, 400), 1.0,
                    1.0};
    queries.push_back(q);
    expected.push_back(snapshot.QueryTopK(q, 10));  // also freezes it
  }

  std::atomic<bool> writing{true};
  std::atomic<int> mismatches{0};
  std::thread writer([&writing] {
    Pcg32 local(77);
    VarianceIndex live;
    for (int v = 0; v < 300; ++v) {
      std::vector<ShotFeatures> features(4);
      for (ShotFeatures& f : features) {
        f.var_ba = local.NextDouble(0, 400);
        f.var_oa = local.NextDouble(0, 400);
      }
      live.AddVideo(v, features);
      (void)live.QueryTopK(VarianceQuery{100, 100, 1, 1}, 10);
    }
    writing = false;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      int rounds = 0;
      while (writing || rounds < 20) {
        size_t i = static_cast<size_t>(rounds + t) % queries.size();
        std::vector<QueryMatch> got = snapshot.QueryTopK(queries[i], 10);
        bool same = got.size() == expected[i].size();
        for (size_t j = 0; same && j < got.size(); ++j) {
          same = got[j].entry.video_id == expected[i][j].entry.video_id &&
                 got[j].entry.shot_index == expected[i][j].entry.shot_index &&
                 got[j].distance == expected[i][j].distance;
        }
        if (!same) ++mismatches;
        ++rounds;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(VarianceIndexTest, InterleavedAddAndQuery) {
  VarianceIndex index;
  index.Add(Entry(0, 0, 16.0, 9.0));
  EXPECT_EQ(index.Query(VarianceQuery{16.0, 9.0, 1.0, 1.0}).size(), 1u);
  index.Add(Entry(0, 1, 16.0, 9.0));
  EXPECT_EQ(index.Query(VarianceQuery{16.0, 9.0, 1.0, 1.0}).size(), 2u);
}

// ---------------------------------------------------------------------------
// Oracle: every read of the frozen grid equals a linear scan plus the
// widening loop the index answered with before the grid existed, in the
// order and the bits of its matches.

using Keep = std::function<bool(const IndexEntry&)>;

// QueryLinear plus the widening loop: double alpha and beta until the band
// holds k accepted entries or max_matching of them, at most 64 rounds.
std::vector<QueryMatch> ReferenceTopKWhere(const VarianceIndex& index,
                                           const VarianceQuery& query, int k,
                                           const Keep& keep,
                                           int max_matching) {
  VarianceQuery widened = query;
  std::vector<QueryMatch> matches;
  for (int attempt = 0; attempt < 64; ++attempt) {
    matches = index.QueryLinear(widened);
    std::erase_if(matches,
                  [&](const QueryMatch& m) { return !keep(m.entry); });
    if (static_cast<int>(matches.size()) >= k ||
        static_cast<int>(matches.size()) >= max_matching) {
      break;
    }
    widened.alpha *= 2.0;
    widened.beta *= 2.0;
  }
  if (static_cast<int>(matches.size()) > k) {
    matches.resize(static_cast<size_t>(k));
  }
  return matches;
}

void ExpectSameMatches(const std::vector<QueryMatch>& got,
                       const std::vector<QueryMatch>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const QueryMatch& a = got[i];
    const QueryMatch& b = want[i];
    ASSERT_TRUE(a.entry.video_id == b.entry.video_id &&
                a.entry.shot_index == b.entry.shot_index &&
                std::bit_cast<uint64_t>(a.entry.var_ba) ==
                    std::bit_cast<uint64_t>(b.entry.var_ba) &&
                std::bit_cast<uint64_t>(a.entry.var_oa) ==
                    std::bit_cast<uint64_t>(b.entry.var_oa) &&
                std::bit_cast<uint64_t>(a.distance) ==
                    std::bit_cast<uint64_t>(b.distance))
        << what << ": match " << i << " is (" << a.entry.video_id << ", "
        << a.entry.shot_index << ", " << a.distance << "), want ("
        << b.entry.video_id << ", " << b.entry.shot_index << ", "
        << b.distance << ")";
  }
}

// Uniform 0-400 draws, as the paper's synthetic tables.
std::vector<IndexEntry> UniformTable(int n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<IndexEntry> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Entry(i % 97, i, rng.NextDouble(0.0, 400.0),
                         rng.NextDouble(0.0, 400.0)));
  }
  return rows;
}

// Shaped like a derived catalog's features: sqrt(Var^BA) piled up near 0
// (var_ba exactly 0 for about 15 % of shots), a median near 0.4, and many
// shots sharing their features exactly, so distances tie and only the
// (video, shot) order separates them.
std::vector<IndexEntry> ClusteredTable(int n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::pair<double, double>> pool;
  for (int i = 0; i < 16; ++i) {
    double sqrt_ba = 1.5 * std::pow(rng.NextDouble(0.0, 1.0), 3.0);
    pool.emplace_back(sqrt_ba * sqrt_ba, rng.NextDouble(0.0, 60.0));
  }
  std::vector<IndexEntry> rows;
  for (int i = 0; i < n; ++i) {
    uint32_t roll = rng.NextBounded(100);
    double var_ba;
    double var_oa;
    if (roll < 15) {
      var_ba = 0.0;
      var_oa = pool[rng.NextBounded(4)].second;
    } else if (roll < 45) {
      std::tie(var_ba, var_oa) = pool[rng.NextBounded(16)];
    } else {
      double sqrt_ba = 2.0 * std::pow(rng.NextDouble(0.0, 1.0), 3.0);
      var_ba = sqrt_ba * sqrt_ba;
      var_oa = rng.NextDouble(0.0, 60.0);
    }
    rows.push_back(Entry(i / 7, i % 7, var_ba, var_oa));
  }
  return rows;
}

// Builds the index through AddVideo (one video per run of equal ids) or
// through Add, so both the merged and the fully re-sorted table are
// checked.
void Fill(const std::vector<IndexEntry>& rows, bool by_video,
          VarianceIndex* index) {
  if (!by_video) {
    for (const IndexEntry& e : rows) index->Add(e);
    return;
  }
  size_t i = 0;
  while (i < rows.size()) {
    std::vector<ShotFeatures> features;
    int video = rows[i].video_id;
    for (; i < rows.size() && rows[i].video_id == video; ++i) {
      features.push_back(ShotFeatures{});
      features.back().var_ba = rows[i].var_ba;
      features.back().var_oa = rows[i].var_oa;
    }
    index->AddVideo(video, features);
  }
}

// Checks every read API on one (index, query) pair against the reference.
void CheckQuery(const VarianceIndex& index, const VarianceQuery& q, int k,
                Pcg32* rng, const std::string& what) {
  const int n = index.size();
  auto all = [](const IndexEntry&) { return true; };
  ExpectSameMatches(index.QueryTopK(q, k),
                    ReferenceTopKWhere(index, q, k, all, n),
                    what + " QueryTopK");
  if (n > 0) {
    const IndexEntry& ex =
        index.entries()[rng->NextBounded(static_cast<uint32_t>(n))];
    Keep not_ex = [&ex](const IndexEntry& e) {
      return !(e.video_id == ex.video_id && e.shot_index == ex.shot_index);
    };
    ExpectSameMatches(index.QueryTopK(q, k, ex.video_id, ex.shot_index),
                      ReferenceTopKWhere(index, q, k, not_ex, n - 1),
                      what + " QueryTopK excluding a shot");
  }
  // A random class: a third of the videos.
  uint32_t residue = rng->NextBounded(3);
  Keep in_class = [residue](const IndexEntry& e) {
    return static_cast<uint32_t>(e.video_id) % 3 == residue;
  };
  int class_size = static_cast<int>(
      std::count_if(index.entries().begin(), index.entries().end(),
                    [&](const IndexEntry& e) { return in_class(e); }));
  ExpectSameMatches(index.QueryTopKWhere(q, k, in_class, class_size),
                    ReferenceTopKWhere(index, q, k, in_class, class_size),
                    what + " QueryTopKWhere");
  int few = std::max(0, k / 2 - 1);  // max_matching below k
  ExpectSameMatches(index.QueryTopKWhere(q, k, in_class, few),
                    ReferenceTopKWhere(index, q, k, in_class, few),
                    what + " QueryTopKWhere, max_matching < k");

  std::vector<QueryMatch> band = index.QueryLinear(q);
  ExpectSameMatches(index.Query(q), band, what + " Query");
  int64_t in_band = -1;
  std::vector<QueryMatch> top = band;
  if (static_cast<int>(top.size()) > k) top.resize(static_cast<size_t>(k));
  ExpectSameMatches(index.QueryBand(q, k, {}, &in_band), top,
                    what + " QueryBand");
  EXPECT_EQ(in_band, static_cast<int64_t>(band.size())) << what;
  std::erase_if(band, [&](const QueryMatch& m) { return !in_class(m.entry); });
  top = band;
  if (static_cast<int>(top.size()) > k) top.resize(static_cast<size_t>(k));
  ExpectSameMatches(index.QueryBand(q, k, in_class, &in_band), top,
                    what + " QueryBand in class");
  EXPECT_EQ(in_band, static_cast<int64_t>(band.size())) << what;
}

// 1e-16 is below half an ulp of most query coordinates, so its first
// doublings leave the band unchanged and only later rounds widen it.
const double kTolerances[] = {0.0, 1e-16, 0.5, 1.0, 7.0, 1e300};

// Queries at catalog shots (as a browsing client sends them), at random
// points and, last, one far beyond every shot (sqrt(Var^BA) = 1e17, whose
// ulp of 16 swallows the smaller tolerances for several doublings), over
// every tolerance pair.
void CheckTable(const std::vector<IndexEntry>& rows, bool by_video,
                int queries, bool all_pairs, uint64_t seed,
                double max_var) {
  VarianceIndex index;
  Fill(rows, by_video, &index);
  Pcg32 rng(seed);
  const int k = 10;
  for (int i = 0; i <= queries; ++i) {
    VarianceQuery q;
    if (i == queries) {
      q.var_ba = 1e34;
      q.var_oa = rng.NextDouble(0.0, max_var);
    } else if (!rows.empty() && i % 2 == 0) {
      const IndexEntry& e = rows[rng.NextBounded(
          static_cast<uint32_t>(rows.size()))];
      q.var_ba = e.var_ba;
      q.var_oa = e.var_oa;
    } else {
      q.var_ba = rng.NextDouble(0.0, max_var);
      q.var_oa = rng.NextDouble(0.0, max_var);
    }
    for (double alpha : kTolerances) {
      for (double beta : kTolerances) {
        if (!all_pairs && alpha != beta) continue;
        q.alpha = alpha;
        q.beta = beta;
        std::ostringstream what;
        what << "n=" << rows.size() << " query " << i << " alpha=" << alpha
             << " beta=" << beta;
        CheckQuery(index, q, k, &rng, what.str());
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(VarianceIndexOracleTest, SmallTablesMatchReference) {
  // Sizes 0, 1, k - 1 and k for k = 10.
  for (int n : {0, 1, 9, 10}) {
    CheckTable(UniformTable(n, 100 + static_cast<uint64_t>(n)), false, 4,
               true, 7, 400.0);
    CheckTable(ClusteredTable(n, 200 + static_cast<uint64_t>(n)), true, 4,
               true, 8, 4.0);
    if (HasFatalFailure()) return;
  }
}

TEST(VarianceIndexOracleTest, UniformTableMatchesReference) {
  CheckTable(UniformTable(1000, 31), false, 12, true, 9, 400.0);
}

TEST(VarianceIndexOracleTest, ClusteredTableMatchesReference) {
  CheckTable(ClusteredTable(1000, 32), true, 12, true, 10, 4.0);
}

TEST(VarianceIndexOracleTest, LargeTablesMatchReference) {
  CheckTable(UniformTable(50000, 33), false, 2, false, 11, 400.0);
  CheckTable(ClusteredTable(50000, 34), true, 2, false, 12, 4.0);
}

// Four shots exactly as far from the query, each alone in its grid cell
// and each the nearest point of its column or row, among distractors
// farther along both axes: whichever cell the nearest-first visit reaches
// last, and however tight its bound, the (video, shot) order must still
// pick the winners.
TEST(VarianceIndexOracleTest, TiesAcrossCellsResolveByIds) {
  // Query (D^v 0, sqrt(Var^BA) 4); the four shots sit at distance 1.
  const VarianceQuery q{16.0, 16.0, 1.0, 1.0};
  const std::pair<double, double> tied[] = {
      {16.0, 9.0}, {16.0, 25.0}, {25.0, 25.0}, {9.0, 9.0}};
  for (int rotation = 0; rotation < 4; ++rotation) {
    VarianceIndex index;
    for (int i = 0; i < 4; ++i) {
      const auto& [var_ba, var_oa] = tied[(i + rotation) % 4];
      index.Add(Entry(0, i, var_ba, var_oa));
    }
    Pcg32 rng(static_cast<uint64_t>(rotation) + 50);
    while (index.size() < 4000) {
      IndexEntry e = Entry(1, index.size(), rng.NextDouble(0.0, 100.0),
                           rng.NextDouble(0.0, 100.0));
      if (std::abs(e.Dv()) >= 3.0 && std::abs(e.SqrtVarBa() - 4.0) >= 3.0) {
        index.Add(e);
      }
    }
    auto all = [](const IndexEntry&) { return true; };
    for (int k = 1; k <= 4; ++k) {
      ExpectSameMatches(index.QueryTopK(q, k),
                        ReferenceTopKWhere(index, q, k, all, index.size()),
                        "rotation " + std::to_string(rotation) + " k=" +
                            std::to_string(k));
    }
  }
}

// Infinite and NaN features (a corrupt catalog row) must neither crash the
// grid nor change the answer.
TEST(VarianceIndexOracleTest, NonFiniteFeaturesMatchReference) {
  std::vector<IndexEntry> rows = UniformTable(200, 35);
  const double inf = std::numeric_limits<double>::infinity();
  rows.push_back(Entry(500, 0, inf, 4.0));
  rows.push_back(Entry(500, 1, 4.0, inf));
  rows.push_back(Entry(500, 2, std::nan(""), 4.0));
  rows.push_back(Entry(500, 3, -1.0, 4.0));
  CheckTable(rows, false, 4, true, 13, 400.0);
}

}  // namespace
}  // namespace vdb
