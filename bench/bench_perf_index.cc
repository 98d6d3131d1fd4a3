// Performance of the variance index across index sizes up to 2^20 shots:
// band queries, the banded count probe and top-k answered from the frozen
// (D^v, sqrt(Var^BA)) grid, against the brute-force linear scan. Two
// feature distributions: the paper-style uniform 0-400 draws, and a
// clustered one shaped like derived catalogs (sqrt(Var^BA) piled up near
// 0, many shots sharing their features exactly), queried at catalog shots
// the way a browsing client does.

#include <cmath>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/variance_index.h"
#include "util/random.h"

namespace vdb {
namespace {

enum class Shape { kUniform, kClustered };

struct Table {
  VarianceIndex index;
  std::vector<VarianceQuery> queries;
};

Table BuildTable(int n, Shape shape) {
  Pcg32 rng(3);
  Table table;
  std::vector<std::pair<double, double>> pool;
  for (int i = 0; i < 16; ++i) {
    double sqrt_ba = 1.5 * std::pow(rng.NextDouble(0.0, 1.0), 3.0);
    pool.emplace_back(sqrt_ba * sqrt_ba, rng.NextDouble(0.0, 60.0));
  }
  std::vector<IndexEntry> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double var_ba = rng.NextDouble(0.0, 400.0);
    double var_oa = rng.NextDouble(0.0, 400.0);
    if (shape == Shape::kClustered) {
      uint32_t roll = rng.NextBounded(100);
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
    }
    rows.push_back(IndexEntry{i % 64, i, var_ba, var_oa});
    table.index.Add(rows.back());
  }
  Pcg32 qrng(17);
  for (int i = 0; i < 4096; ++i) {
    VarianceQuery q;
    if (shape == Shape::kClustered) {
      const IndexEntry& e = rows[qrng.NextBounded(static_cast<uint32_t>(n))];
      q.var_ba = e.var_ba;
      q.var_oa = e.var_oa;
    } else {
      q.var_ba = qrng.NextDouble(0.0, 400.0);
      q.var_oa = qrng.NextDouble(0.0, 400.0);
    }
    table.queries.push_back(q);
  }
  // Settle the sort (and freeze) outside the timed region.
  (void)table.index.QueryTopK(VarianceQuery{}, 1);
  return table;
}

// Runs `op` over the table's queries in turn.
template <typename Op>
void RunQueries(benchmark::State& state, Shape shape, int n, Op op) {
  Table table = BuildTable(n, shape);
  size_t next = 0;
  for (auto _ : state) {
    op(table.index, table.queries[next]);
    next = (next + 1) % table.queries.size();
  }
}

void BM_IndexQuery(benchmark::State& state) {
  RunQueries(state, Shape::kUniform, static_cast<int>(state.range(0)),
             [](const VarianceIndex& index, const VarianceQuery& q) {
               benchmark::DoNotOptimize(index.Query(q));
             });
}
BENCHMARK(BM_IndexQuery)->RangeMultiplier(4)->Range(1 << 8, 1 << 20);

void BM_LinearScan(benchmark::State& state) {
  RunQueries(state, Shape::kUniform, static_cast<int>(state.range(0)),
             [](const VarianceIndex& index, const VarianceQuery& q) {
               benchmark::DoNotOptimize(index.QueryLinear(q));
             });
}
BENCHMARK(BM_LinearScan)->RangeMultiplier(4)->Range(1 << 8, 1 << 20);

// The fixed-band probe behind SearchBanded: the top 10 inside the band and
// how many shots the band holds.
void BM_IndexBandCount(benchmark::State& state) {
  RunQueries(state, Shape::kUniform, static_cast<int>(state.range(0)),
             [](const VarianceIndex& index, const VarianceQuery& q) {
               int64_t in_band = 0;
               benchmark::DoNotOptimize(index.QueryBand(q, 10, {}, &in_band));
               benchmark::DoNotOptimize(in_band);
             });
}
BENCHMARK(BM_IndexBandCount)->RangeMultiplier(4)->Range(1 << 8, 1 << 20);

// Args: k, shots.
void BM_IndexTopK(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunQueries(state, Shape::kUniform, static_cast<int>(state.range(1)),
             [k](const VarianceIndex& index, const VarianceQuery& q) {
               benchmark::DoNotOptimize(index.QueryTopK(q, k));
             });
}
BENCHMARK(BM_IndexTopK)
    ->ArgsProduct({{10}, benchmark::CreateRange(1 << 8, 1 << 20, 4)})
    ->Args({3, 1 << 14})
    ->Args({100, 1 << 14});

void BM_IndexTopKClustered(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunQueries(state, Shape::kClustered, static_cast<int>(state.range(1)),
             [k](const VarianceIndex& index, const VarianceQuery& q) {
               benchmark::DoNotOptimize(index.QueryTopK(q, k));
             });
}
BENCHMARK(BM_IndexTopKClustered)
    ->ArgsProduct({{10}, benchmark::CreateRange(1 << 8, 1 << 20, 4)});

void BM_IndexBandCountClustered(benchmark::State& state) {
  RunQueries(state, Shape::kClustered, static_cast<int>(state.range(0)),
             [](const VarianceIndex& index, const VarianceQuery& q) {
               int64_t in_band = 0;
               benchmark::DoNotOptimize(index.QueryBand(q, 10, {}, &in_band));
               benchmark::DoNotOptimize(in_band);
             });
}
BENCHMARK(BM_IndexBandCountClustered)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 20);

// Freezing the table: the grid build plus one top-10, which is what the
// first read after a RELOAD pays. The rows arrive sorted (as a restored
// catalog's do), outside the timed region.
void BM_IndexFreeze(benchmark::State& state) {
  Table table =
      BuildTable(static_cast<int>(state.range(0)), Shape::kClustered);
  std::vector<ShotFeatures> features;
  for (const IndexEntry& e : table.index.entries()) {
    features.push_back(ShotFeatures{});
    features.back().var_ba = e.var_ba;
    features.back().var_oa = e.var_oa;
  }
  std::optional<VarianceIndex> index;
  for (auto _ : state) {
    state.PauseTiming();
    index.emplace();
    index->AddVideo(0, features);
    state.ResumeTiming();
    benchmark::DoNotOptimize(index->QueryTopK(table.queries[0], 10));
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_IndexFreeze)
    ->Arg(3395)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vdb

BENCHMARK_MAIN();
