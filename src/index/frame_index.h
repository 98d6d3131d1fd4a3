#ifndef VDB_INDEX_FRAME_INDEX_H_
#define VDB_INDEX_FRAME_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/video_database.h"
#include "index/token.h"
#include "util/result.h"

namespace vdb {
namespace index {

// The query-by-frame index: given one frame's signature, find every shot
// whose sketch shares its tokens — the sub-linear complement to the linear
// banded scan of core/variance_index.h (ROADMAP's million-clip workload).
//
// One exact tier: a frozen, sorted flat array of (token, video, shot)
// postings. A query binary-searches each of its tokens and ranks
// candidates by the fraction of query tokens they match. Lookup cost is
// O(Q log P + hits) — independent of catalog size except through the log.
//
// Build is two-phase (AddVideo... then Freeze) so ingest can stream; a
// frozen index is immutable and safe to share across threads.
struct FrameIndexOptions {
  TokenizerOptions tokenizer;
};

// One ranked answer. score = matched query tokens / total query tokens, in
// (0, 1].
struct FrameHit {
  int32_t video_id = -1;
  int32_t shot_index = -1;
  double score = 0.0;
};

struct FrameQueryStats {
  uint64_t query_tokens = 0;  // distinct tokens in the query signature
  uint64_t candidates = 0;    // postings scanned
  uint64_t probed = 0;        // distinct shots touched
};

class FrameIndex {
 public:
  explicit FrameIndex(FrameIndexOptions options = FrameIndexOptions());

  FrameIndex(FrameIndex&&) noexcept = default;
  FrameIndex& operator=(FrameIndex&&) noexcept = default;
  FrameIndex(const FrameIndex&) = delete;
  FrameIndex& operator=(const FrameIndex&) = delete;

  // Sketches every shot of one video and queues its postings. Videos must
  // be added before Freeze; ids may arrive in any order but must be unique.
  void AddVideo(int video_id, const VideoSignatures& signatures,
                const std::vector<Shot>& shots);

  // Sorts and deduplicates the posting array; after this the index is
  // immutable and queryable. Idempotent.
  void Freeze();

  bool frozen() const { return frozen_; }

  // Builds a frozen index over every video of `db`.
  static FrameIndex Build(const VideoDatabase& db,
                          FrameIndexOptions options = FrameIndexOptions());

  // Ranked shots sharing tokens with `query_tokens` (a sorted unique set,
  // e.g. from SignatureTokenSet). Results are ordered by (score desc,
  // video_id asc, shot_index asc) and truncated to top_k — a total order,
  // so a scatter-gathered merge reproduces it byte for byte.
  std::vector<FrameHit> Query(const std::vector<uint64_t>& query_tokens,
                              int top_k,
                              FrameQueryStats* stats = nullptr) const;

  // Query() on a raw signature (tokenized with the index's own options).
  std::vector<FrameHit> QuerySignature(const Signature& signature, int top_k,
                                       FrameQueryStats* stats = nullptr) const;

  int video_count() const { return static_cast<int>(video_count_); }
  int shot_count() const { return shot_count_; }
  uint64_t posting_count() const { return postings_.size(); }
  const FrameIndexOptions& options() const { return options_; }

  // Serialization of a frozen index (payload only; index_store.h wraps it
  // in the checksummed, content-addressed segment framing). Deterministic:
  // the same catalog serializes to the same bytes.
  std::string Serialize() const;
  static Result<FrameIndex> Deserialize(std::string_view payload);

 private:
  struct Posting {
    uint64_t token = 0;
    int32_t video_id = -1;
    int32_t shot_index = -1;

    friend bool operator<(const Posting& a, const Posting& b) {
      if (a.token != b.token) return a.token < b.token;
      if (a.video_id != b.video_id) return a.video_id < b.video_id;
      return a.shot_index < b.shot_index;
    }
    friend bool operator==(const Posting& a, const Posting& b) {
      return a.token == b.token && a.video_id == b.video_id &&
             a.shot_index == b.shot_index;
    }
  };

  FrameIndexOptions options_;
  std::vector<Posting> postings_;  // frozen: sorted, unique
  uint64_t video_count_ = 0;       // videos added
  int shot_count_ = 0;
  bool frozen_ = false;
};

}  // namespace index
}  // namespace vdb

#endif  // VDB_INDEX_FRAME_INDEX_H_
