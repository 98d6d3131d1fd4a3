// The quantized-matching model bench_ablation_quantized measures against
// the banded index: own-cell lookup, band-overlap probing and its recall
// parity with the band, pinned so the ablation's figures keep their
// meaning.

#include "bench/quantized_model.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace vdb {
namespace bench {
namespace {

IndexEntry Entry(int shot, double var_ba, double var_oa) {
  return IndexEntry{0, shot, var_ba, var_oa};
}

TEST(QuantizedIndexTest, SameCellMatches) {
  QuantizedModel index;
  // Query Dv = 1, sqrtBA = 4 lands in cell (0, 2) with sides 2x2.
  index.Add(Entry(0, 16.0, 9.0));   // Dv 1, sqrtBA 4 -> same cell
  index.Add(Entry(1, 17.0, 9.5));   // nearby, same cell
  index.Add(Entry(2, 400.0, 9.0));  // Dv 17, far cell
  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> matches = index.Query(q);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].entry.shot_index, 0);
  EXPECT_DOUBLE_EQ(matches[0].distance, 0.0);
}

TEST(QuantizedIndexTest, BorderMissWithoutNeighborProbing) {
  // Two shots 0.2 apart in Dv but on opposite sides of a cell border
  // (cells are [0,2), [2,4) ...): plain quantized lookup misses one.
  QuantizedModel plain;
  QuantizedModel probing(/*probe_neighbors=*/true);
  for (auto* index : {&plain, &probing}) {
    index->Add(Entry(0, std::pow(2.1 + 3.0, 2), 9.0));  // Dv = 2.1
    index->Add(Entry(1, std::pow(1.9 + 3.0, 2), 9.0));  // Dv = 1.9
  }
  VarianceQuery q;  // query at Dv = 2.1's position
  q.var_ba = std::pow(2.1 + 3.0, 2);
  q.var_oa = 9.0;
  EXPECT_EQ(plain.Query(q).size(), 1u);
  EXPECT_EQ(probing.Query(q).size(), 2u);
}

TEST(QuantizedIndexTest, MatchesSortedByDistance) {
  QuantizedModel index;
  index.Add(Entry(0, 16.0, 9.0));
  index.Add(Entry(1, 18.0, 9.0));
  index.Add(Entry(2, 16.5, 9.0));
  VarianceQuery q;
  q.var_ba = 16.0;
  q.var_oa = 9.0;
  std::vector<QueryMatch> matches = index.Query(q);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance, matches[i].distance);
  }
}

TEST(QuantizedIndexTest, CellCountGrowsWithSpread) {
  QuantizedModel index;
  for (int i = 0; i < 10; ++i) {
    index.Add(Entry(i, std::pow(3.0 * i, 2), 0.0));
  }
  EXPECT_EQ(index.size(), 10);
  EXPECT_GT(index.cell_count(), 5);
}

TEST(QuantizedIndexTest, NegativeDvCellsWork) {
  QuantizedModel index;
  index.Add(Entry(0, 0.0, 25.0));  // Dv = -5
  VarianceQuery q;
  q.var_ba = 0.0;
  q.var_oa = 25.0;
  std::vector<QueryMatch> matches = index.Query(q);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_DOUBLE_EQ(matches[0].distance, 0.0);
}

// Property: every quantized match (same cell) is within the cell diagonal
// of the query, and with neighbour probing every banded match whose band
// fits inside the cell size is found.
class QuantizedVsBandedTest : public testing::TestWithParam<int> {};

TEST_P(QuantizedVsBandedTest, NeighborProbingCoversTheBand) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  VarianceIndex banded;
  QuantizedModel quantized(/*probe_neighbors=*/true);
  for (int i = 0; i < 300; ++i) {
    IndexEntry e = Entry(i, rng.NextDouble(0, 200), rng.NextDouble(0, 200));
    banded.Add(e);
    quantized.Add(e);
  }
  for (int trial = 0; trial < 10; ++trial) {
    VarianceQuery q;
    q.var_ba = rng.NextDouble(0, 200);
    q.var_oa = rng.NextDouble(0, 200);
    q.alpha = 1.0;
    q.beta = 1.0;
    std::set<int> quantized_ids;
    int cells_probed = 0;
    for (const QueryMatch& m : quantized.Query(q, &cells_probed)) {
      quantized_ids.insert(m.entry.shot_index);
    }
    // Cost-aware probing: the +-1 band against side-2 cells overlaps at
    // most 2 cells per dimension — 4 lookups, never the radius-1 probe's 9.
    EXPECT_GE(cells_probed, 1);
    EXPECT_LE(cells_probed, 4);
    // Recall parity: every banded match is in a probed cell (the band is a
    // subset of the union of overlapped cells), so none may be missed.
    for (const QueryMatch& m : banded.Query(q)) {
      EXPECT_TRUE(quantized_ids.count(m.entry.shot_index))
          << "banded match missed by quantized+neighbors";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedVsBandedTest,
                         testing::Range(0, 6));

TEST(QuantizedIndexTest, CostAwareProbeSkipsUncoveredNeighbors) {
  QuantizedModel index(/*probe_neighbors=*/true);
  index.Add(Entry(0, 25.0, 16.0));
  // Query dead-centre of its cell with a band narrower than the distance
  // to any border: exactly one cell may be probed. sqrtBA 5 and Dv 1 sit
  // at the centres of cells [4,6) and [0,2).
  VarianceQuery q;
  q.var_ba = 25.0;
  q.var_oa = 16.0;
  q.alpha = 0.5;
  q.beta = 0.5;
  int cells_probed = 0;
  std::vector<QueryMatch> matches = index.Query(q, &cells_probed);
  EXPECT_EQ(matches.size(), 1u);
  EXPECT_EQ(cells_probed, 1);

  // A band reaching across one border in one dimension probes exactly 2:
  // Dv 1.5 with alpha 0.8 spans [0.7, 2.3] — cells 0 and 1 only.
  q.var_oa = 12.25;  // sqrtOA 3.5 -> Dv 1.5
  q.alpha = 0.8;
  q.beta = 0.5;
  index.Query(q, &cells_probed);
  EXPECT_EQ(cells_probed, 2);
}

TEST(QuantizedIndexTest, WideBandStillCoversEveryOverlappedCell) {
  // A band wider than one cell must widen the probe window accordingly —
  // cost awareness may never trade recall.
  QuantizedModel quantized(/*probe_neighbors=*/true);
  VarianceIndex banded;
  for (int i = 0; i < 50; ++i) {
    IndexEntry e = Entry(i, std::pow(1.0 + 0.5 * i, 2), 0.25 * i);
    quantized.Add(e);
    banded.Add(e);
  }
  VarianceQuery q;
  q.var_ba = 100.0;
  q.var_oa = 25.0;
  q.alpha = 5.0;  // band spans several side-2 cells
  q.beta = 5.0;
  std::set<int> quantized_ids;
  for (const QueryMatch& m : quantized.Query(q)) {
    quantized_ids.insert(m.entry.shot_index);
  }
  for (const QueryMatch& m : banded.Query(q)) {
    EXPECT_TRUE(quantized_ids.count(m.entry.shot_index));
  }
}

}  // namespace
}  // namespace bench
}  // namespace vdb
