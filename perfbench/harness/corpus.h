// The benchmark's inputs: a handful of rendered Table-5 clips (cached on
// disk, rendering is ~100x slower than analysis) and any number of distinct
// videos derived from them by seeded shot reordering plus a per-video
// gain/offset colour map.
#ifndef VDBPERF_CORPUS_H_
#define VDBPERF_CORPUS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/video_database.h"
#include "stream/frame_source.h"
#include "synth/storyboard.h"
#include "util/result.h"
#include "video/video.h"

namespace vdbperf {

struct BaseClip {
  vdb::Video video;
  vdb::GroundTruth truth;
};

// Renders the base clips once and caches them under `cache_dir`; later runs
// read the cache. The set is fixed (it does not depend on the run's seed).
vdb::Result<std::vector<BaseClip>> LoadBaseClips(const std::string& cache_dir,
                                                 int count, double scale);

// One derived video: a list of base-clip shots in seeded order, recoloured
// through a per-channel lookup table.
struct DerivedSpec {
  struct Piece {
    int clip = 0;
    int start = 0;  // first frame in the base clip
    int count = 0;
  };
  std::string name;
  double fps = 3.0;
  int width = 0;
  int height = 0;
  int frames = 0;
  std::vector<Piece> pieces;
  std::vector<int> piece_first;  // first derived frame of each piece
  std::array<std::array<uint8_t, 256>, 3> lut{};
};

DerivedSpec MakeDerived(const std::vector<BaseClip>& clips,
                        const std::string& name, int frames,
                        std::mt19937_64* rng);

// Frame `index` of a derived video (0 <= index < spec.frames).
vdb::Frame DeriveFrame(const std::vector<BaseClip>& clips,
                       const DerivedSpec& spec, int index);
vdb::Video Materialize(const std::vector<BaseClip>& clips,
                       const DerivedSpec& spec);

// Analyses every spec with VideoDatabase::IngestBatch (materialising at
// most `chunk` videos at a time) into `db`, in spec order. Returns when
// each chunk's IngestBatch ran and how many frames it analysed.
struct IngestChunk {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  long frames = 0;
};
vdb::Result<std::vector<IngestChunk>> IngestSpecs(const std::vector<BaseClip>& clips,
                                const std::vector<DerivedSpec>& specs,
                                int chunk, vdb::VideoDatabase* db);

// Publishes `db` as a fresh store generation in `dir` with its FRAMEINDEX,
// the way the committer does; the two timings are the store and index
// layers' share of a publish.
struct PublishTimes {
  double save_ms = 0.0;
  double index_ms = 0.0;
};
vdb::Result<PublishTimes> PublishStore(const vdb::VideoDatabase& db,
                                       const std::string& dir);

// Per-frame pull times of one streamed video, written by its source's
// decode thread and read by the freshness prober.
struct PullLog {
  explicit PullLog(int frames) : pulled_ns(static_cast<size_t>(frames)) {}
  std::vector<std::atomic<int64_t>> pulled_ns;  // 0 = not pulled yet
};

// A FrameSource over a derived video: the live camera of one farm tenant.
// Every pull is timed into `log` and, when tracing, spanned.
std::unique_ptr<vdb::stream::FrameSource> MakeDerivedSource(
    const std::vector<BaseClip>* clips, const DerivedSpec* spec,
    PullLog* log);

}  // namespace vdbperf

#endif  // VDBPERF_CORPUS_H_
