// The browse/search request mix (QUERY / QUERYFRAME / TREE) and the oracle
// every answer is checked against.
#ifndef VDBPERF_MIX_H_
#define VDBPERF_MIX_H_

#include <random>
#include <string>
#include <vector>

#include "core/video_database.h"
#include "corpus.h"
#include "index/frame_index.h"
#include "serve/client.h"
#include "serve/metrics.h"
#include "serve/wire.h"
#include "util/result.h"

namespace vdbperf {

enum Kind { kQuery = 0, kQueryFrame = 1, kTree = 2, kNumKinds = 3 };
inline const char* KindName(int kind) {
  static const char* const kNames[] = {"query", "queryframe", "tree"};
  return kNames[kind];
}

struct MixRequest {
  Kind kind = kQuery;
  vdb::serve::Request request;
};

inline constexpr int kTopK = 10;

// A QUERYFRAME request carrying `frame` as the raw query image, and the
// frame back out of such a request.
vdb::serve::Request QueryFrameRequest(const vdb::Frame& frame, int top_k);
vdb::Frame RequestFrame(const vdb::serve::QueryFrameRequest& request);

// A seeded sequence of `count` requests over `db` (whose video i was
// derived from specs[i]): ~60 % QUERY with features of a catalog shot, ~30 %
// QUERYFRAME carrying a raw frame of a catalog video, ~10 % TREE of a
// catalog video. Only videos [0, videos) are drawn from.
std::vector<MixRequest> MakeMix(const std::vector<BaseClip>& clips,
                                const std::vector<DerivedSpec>& specs,
                                const vdb::VideoDatabase& db, int videos,
                                int count, std::mt19937_64* rng);

// Opens `count` client connections one at a time, each finishing a PING
// round trip before the next connects, so the server is idle whenever a
// connection arrives and its front end places them the same way on every
// run. (Two clients connecting at once land on one event worker on some
// runs and on two on others, and every latency figure flips between two
// modes.) The event worker each one landed on, read from the per-worker
// PING counts in `metrics`, is written to `placement`, e.g. "0,0".
vdb::Result<std::vector<vdb::serve::Client>> ConnectInTurn(
    int port, const vdb::serve::ServerMetrics& metrics, int count,
    std::string* placement);

// The canonical bytes of an answer: its wire encoding with the
// degraded-mode health fields erased (a single node says 0/0, a router
// ok/total).
std::string AnswerBytes(vdb::serve::Response response);

// Damages an answer the way a wrong result would look (the first hit or
// suggestion points elsewhere, or the tree root moves). The smoke test uses
// it to prove the oracle counts wrong answers.
void CorruptAnswer(vdb::serve::Response* response);

// What a server holding `db` and `frame_index` must answer to `request`,
// computed directly from the library (VideoDatabase::Search,
// ComputeFrameSignature + FrameIndex::QuerySignature, the scene tree).
vdb::serve::Response DirectAnswer(const vdb::VideoDatabase& db,
                                  const vdb::index::FrameIndex& frame_index,
                                  const vdb::serve::Request& request);

}  // namespace vdbperf

#endif  // VDBPERF_MIX_H_
