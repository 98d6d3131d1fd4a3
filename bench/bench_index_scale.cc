// Scale trajectory of the query-by-frame index: lookup latency of the
// inverted list against a linear sketch scan, at 10k / 100k / 1M
// synthetic clips. Signatures are synthesized directly (no rendering) —
// the lanes measure index probe cost, not the extractor.
//
// The acceptance shape this bench exists to demonstrate: the linear scan
// grows ~100x from 10k to 1M clips (it touches every sketch), while the
// inverted lookup is O(Q log P + hits) and must stay under 20x.
//
// Scales are capped by VDB_INDEX_SCALE_MAX (default 1'000'000) so CI can
// run a cheap 10k-only pass. Driven by scripts/bench_index_scale.sh, which
// writes BENCH_index_scale.json and checks the growth ratios.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "index/frame_index.h"
#include "index/token.h"
#include "util/random.h"

namespace vdb {
namespace index {
namespace {

// The paper's TBA line length for the 160x120 storyboard geometry.
constexpr int kSignaturePixels = 13;
constexpr int kShotsPerClip = 2;
constexpr int kTopK = 5;

Signature SyntheticSignature(uint64_t clip, int shot) {
  Pcg32 rng(0x5ca1ab1e00000000ULL + clip, static_cast<uint64_t>(shot));
  Signature signature;
  signature.reserve(kSignaturePixels);
  for (int i = 0; i < kSignaturePixels; ++i) {
    uint32_t word = rng.NextU32();
    signature.push_back(PixelRGB(static_cast<uint8_t>(word),
                                 static_cast<uint8_t>(word >> 8),
                                 static_cast<uint8_t>(word >> 16)));
  }
  return signature;
}

// One shot's sketch: its sorted, deduplicated token set — what the linear
// baseline scans.
struct ShotSketch {
  int32_t video_id = -1;
  int32_t shot_index = -1;
  std::vector<uint64_t> tokens;  // sorted, unique
};

// One scale's fixture: the frozen index, the flat sketch list the
// linear lane scans, and a planted query mix (half hits, half misses — a
// lookup that finds nothing still pays its full probe cost).
struct World {
  FrameIndex index;
  std::vector<ShotSketch> sketches;
  std::vector<std::vector<uint64_t>> queries;
};

const World& WorldFor(int64_t clips) {
  static auto* cache = new std::map<int64_t, std::unique_ptr<World>>();
  std::unique_ptr<World>& slot = (*cache)[clips];
  if (slot != nullptr) return *slot;
  slot = std::make_unique<World>();

  TokenizerOptions tokenizer;
  FrameIndexOptions options;
  options.tokenizer = tokenizer;
  FrameIndex building(options);
  slot->sketches.reserve(static_cast<size_t>(clips) * kShotsPerClip);
  for (int64_t clip = 0; clip < clips; ++clip) {
    VideoSignatures signatures;
    std::vector<Shot> shots;
    for (int shot = 0; shot < kShotsPerClip; ++shot) {
      FrameSignature frame;
      frame.signature_ba =
          SyntheticSignature(static_cast<uint64_t>(clip), shot);
      signatures.frames.push_back(std::move(frame));
      shots.push_back(Shot{shot, shot});
      ShotSketch sketch;
      sketch.video_id = static_cast<int32_t>(clip);
      sketch.shot_index = shot;
      sketch.tokens = SignatureTokenSet(
          signatures.frames.back().signature_ba, tokenizer);
      slot->sketches.push_back(std::move(sketch));
    }
    building.AddVideo(static_cast<int>(clip),
                      TokenizeShots(signatures, shots, tokenizer));
  }
  building.Freeze();
  slot->index = std::move(building);

  Pcg32 pick(0xbe5700 + static_cast<uint64_t>(clips));
  for (int q = 0; q < 64; ++q) {
    Signature signature =
        (q % 2 == 0)
            ? SyntheticSignature(pick.NextU32() % static_cast<uint64_t>(clips),
                                 static_cast<int>(pick.NextU32()) %
                                     kShotsPerClip)
            : SyntheticSignature(0x7fffffffffull + q, 0);  // planted miss
    slot->queries.push_back(SignatureTokenSet(signature, tokenizer));
  }
  return *slot;
}

// The linear baseline: score every sketch by token overlap, keep top-k.
// This is what serving costs without the index — O(total sketch tokens).
std::vector<FrameHit> LinearScan(const std::vector<ShotSketch>& sketches,
                                 const std::vector<uint64_t>& query,
                                 int top_k) {
  std::vector<FrameHit> best;
  for (const ShotSketch& sketch : sketches) {
    size_t matched = 0;
    size_t a = 0, b = 0;
    while (a < query.size() && b < sketch.tokens.size()) {
      if (query[a] < sketch.tokens[b]) {
        ++a;
      } else if (sketch.tokens[b] < query[a]) {
        ++b;
      } else {
        ++matched;
        ++a;
        ++b;
      }
    }
    if (matched == 0) continue;
    FrameHit hit;
    hit.video_id = sketch.video_id;
    hit.shot_index = sketch.shot_index;
    hit.score = static_cast<double>(matched) /
                static_cast<double>(query.empty() ? 1 : query.size());
    best.push_back(hit);
  }
  std::sort(best.begin(), best.end(), [](const FrameHit& a, const FrameHit& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.video_id != b.video_id) return a.video_id < b.video_id;
    return a.shot_index < b.shot_index;
  });
  if (best.size() > static_cast<size_t>(top_k)) {
    best.resize(static_cast<size_t>(top_k));
  }
  return best;
}

void BM_LinearScanLookup(benchmark::State& state) {
  const World& world = WorldFor(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const std::vector<uint64_t>& query =
        world.queries[i++ % world.queries.size()];
    std::vector<FrameHit> hits = LinearScan(world.sketches, query, kTopK);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_InvertedLookup(benchmark::State& state) {
  const World& world = WorldFor(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const std::vector<uint64_t>& query =
        world.queries[i++ % world.queries.size()];
    std::vector<FrameHit> hits = world.index.Query(query, kTopK);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace
}  // namespace index
}  // namespace vdb

int main(int argc, char** argv) {
  int64_t max_clips = 1'000'000;
  if (const char* env = std::getenv("VDB_INDEX_SCALE_MAX")) {
    max_clips = std::atoll(env);
  }
  for (int64_t clips : {int64_t{10'000}, int64_t{100'000},
                        int64_t{1'000'000}}) {
    if (clips > max_clips) continue;
    benchmark::RegisterBenchmark("BM_LinearScanLookup",
                                 vdb::index::BM_LinearScanLookup)
        ->Arg(clips)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("BM_InvertedLookup",
                                 vdb::index::BM_InvertedLookup)
        ->Arg(clips)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
