#include "index/frame_index.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <unordered_map>
#include <utility>

#include "util/binary_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vdb {
namespace index {
namespace {

// Deserialization caps, applied before any allocation.
constexpr uint64_t kMaxPostings = 1ull << 31;
constexpr uint32_t kMaxVideosCap = 1u << 24;

// (video, shot) packed for the per-query accumulation map.
inline uint64_t ShotKey(int32_t video_id, int32_t shot_index) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(video_id)) << 32) |
         static_cast<uint32_t>(shot_index);
}

void SortHits(std::vector<FrameHit>* hits) {
  std::sort(hits->begin(), hits->end(),
            [](const FrameHit& a, const FrameHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.video_id != b.video_id) return a.video_id < b.video_id;
              return a.shot_index < b.shot_index;
            });
}

}  // namespace

ShotTokens TokenizeShots(const VideoSignatures& signatures,
                         const std::vector<Shot>& shots,
                         const TokenizerOptions& options) {
  ShotTokens tokens;
  tokens.reserve(shots.size());
  for (const Shot& shot : shots) {
    tokens.push_back(ShotTokenSet(signatures, shot, options));
  }
  return tokens;
}

FrameIndex::FrameIndex(FrameIndexOptions options)
    : options_(std::move(options)) {}

void FrameIndex::AddVideo(int video_id, const ShotTokens& shot_tokens) {
  VDB_CHECK(!frozen_) << "AddVideo on a frozen FrameIndex";
  for (size_t shot = 0; shot < shot_tokens.size(); ++shot) {
    for (uint64_t token : shot_tokens[shot]) {
      postings_.push_back(Posting{token, static_cast<int32_t>(video_id),
                                  static_cast<int32_t>(shot)});
    }
    ++shot_count_;
  }
  ++video_count_;
}

void FrameIndex::Freeze() {
  if (frozen_) {
    return;
  }
  // Tokens are FNV-1a64 hashes, near-uniform in their top bits. One
  // counting pass and one scatter bucket the postings by their top `bits`
  // token bits (about eight postings a bucket); sorting each bucket then
  // gives the order one std::sort of the whole array gives, in a fraction
  // of its time. A skewed token set only makes some buckets larger.
  const int bits = std::clamp(
      static_cast<int>(std::bit_width(postings_.size() >> 3)), 1, 16);
  const int shift = 64 - bits;
  std::vector<size_t> starts((size_t{1} << bits) + 1, 0);
  for (const Posting& p : postings_) {
    ++starts[(p.token >> shift) + 1];
  }
  for (size_t b = 1; b < starts.size(); ++b) {
    starts[b] += starts[b - 1];
  }
  std::vector<Posting> sorted(postings_.size());
  std::vector<size_t> fill(starts.begin(), starts.end() - 1);
  for (const Posting& p : postings_) {
    sorted[fill[p.token >> shift]++] = p;
  }
  for (size_t b = 0; b + 1 < starts.size(); ++b) {
    std::sort(sorted.begin() + static_cast<ptrdiff_t>(starts[b]),
              sorted.begin() + static_cast<ptrdiff_t>(starts[b + 1]));
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  sorted.shrink_to_fit();
  postings_ = std::move(sorted);
  frozen_ = true;
}

FrameIndex FrameIndex::Build(const VideoDatabase& db,
                             FrameIndexOptions options) {
  FrameIndex index(std::move(options));
  int count = db.video_count();
  for (int id = 0; id < count; ++id) {
    const CatalogEntry* entry = db.GetEntry(id).value();
    index.AddVideo(id, TokenizeShots(entry->signatures, entry->shots,
                                     index.options_.tokenizer));
  }
  index.Freeze();
  return index;
}

std::vector<FrameHit> FrameIndex::Query(
    const std::vector<uint64_t>& query_tokens, int top_k,
    FrameQueryStats* stats) const {
  VDB_CHECK(frozen_) << "Query on an unfrozen FrameIndex";
  FrameQueryStats local;
  local.query_tokens = query_tokens.size();
  std::vector<FrameHit> hits;
  if (!query_tokens.empty()) {
    std::unordered_map<uint64_t, uint32_t> matched;
    for (uint64_t token : query_tokens) {
      auto range = std::equal_range(
          postings_.begin(), postings_.end(),
          Posting{token, INT32_MIN, INT32_MIN},
          [](const Posting& a, const Posting& b) { return a.token < b.token; });
      for (auto it = range.first; it != range.second; ++it) {
        ++local.candidates;
        ++matched[ShotKey(it->video_id, it->shot_index)];
      }
    }
    local.probed = matched.size();
    hits.reserve(matched.size());
    const double denom = static_cast<double>(query_tokens.size());
    for (const auto& [key, count] : matched) {
      FrameHit hit;
      hit.video_id = static_cast<int32_t>(key >> 32);
      hit.shot_index = static_cast<int32_t>(key & 0xffffffffu);
      hit.score = static_cast<double>(count) / denom;
      hits.push_back(hit);
    }
    SortHits(&hits);
    if (top_k >= 0 && hits.size() > static_cast<size_t>(top_k)) {
      hits.resize(static_cast<size_t>(top_k));
    }
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return hits;
}

std::vector<FrameHit> FrameIndex::QuerySignature(const Signature& signature,
                                                 int top_k,
                                                 FrameQueryStats* stats) const {
  return Query(SignatureTokenSet(signature, options_.tokenizer), top_k,
               stats);
}

std::string FrameIndex::Serialize() const {
  VDB_CHECK(frozen_) << "Serialize on an unfrozen FrameIndex";
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(options_.tokenizer.gram));
  w.PutU32(static_cast<uint32_t>(options_.tokenizer.quant_shift));
  w.PutU32(static_cast<uint32_t>(options_.tokenizer.frame_stride));
  w.PutU64(video_count_);
  w.PutI32(shot_count_);
  w.PutU64(postings_.size());
  for (const Posting& p : postings_) {
    w.PutU64(p.token);
    w.PutI32(p.video_id);
    w.PutI32(p.shot_index);
  }
  return w.TakeBuffer();
}

Result<FrameIndex> FrameIndex::Deserialize(std::string_view payload) {
  BinaryReader r(payload);
  FrameIndexOptions options;
  VDB_ASSIGN_OR_RETURN(uint32_t gram, r.GetU32("tokenizer gram"));
  VDB_ASSIGN_OR_RETURN(uint32_t shift, r.GetU32("tokenizer shift"));
  VDB_ASSIGN_OR_RETURN(uint32_t stride, r.GetU32("tokenizer stride"));
  if (gram < 1 || gram > 1024 || shift > 7 || stride < 1 ||
      stride > (1u << 20)) {
    return Status::Corruption("implausible tokenizer options");
  }
  options.tokenizer.gram = static_cast<int>(gram);
  options.tokenizer.quant_shift = static_cast<int>(shift);
  options.tokenizer.frame_stride = static_cast<int>(stride);
  FrameIndex index(options);
  VDB_ASSIGN_OR_RETURN(index.video_count_, r.GetU64("video count"));
  VDB_ASSIGN_OR_RETURN(index.shot_count_, r.GetI32("shot count"));
  if (index.video_count_ > kMaxVideosCap || index.shot_count_ < 0) {
    return Status::Corruption("implausible frame-index counts");
  }
  VDB_ASSIGN_OR_RETURN(uint64_t posting_count, r.GetU64("posting count"));
  if (posting_count > kMaxPostings ||
      posting_count * 16 > r.remaining()) {
    return Status::Corruption(
        StrFormat("implausible posting count %llu",
                  static_cast<unsigned long long>(posting_count)));
  }
  index.postings_.resize(static_cast<size_t>(posting_count));
  const Posting* prev = nullptr;
  for (Posting& p : index.postings_) {
    VDB_ASSIGN_OR_RETURN(p.token, r.GetU64("posting token"));
    VDB_ASSIGN_OR_RETURN(p.video_id, r.GetI32("posting video"));
    VDB_ASSIGN_OR_RETURN(p.shot_index, r.GetI32("posting shot"));
    if (prev != nullptr && !(*prev < p)) {
      return Status::Corruption("frame-index postings out of order");
    }
    prev = &p;
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after frame index");
  }
  index.frozen_ = true;
  return index;
}

}  // namespace index
}  // namespace vdb
