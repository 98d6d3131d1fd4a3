#ifndef VDB_FARM_COMMITTER_H_
#define VDB_FARM_COMMITTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_set>

#include "core/video_database.h"
#include "index/frame_index.h"
#include "store/catalog_store.h"
#include "stream/pipeline.h"
#include "util/fs.h"
#include "util/result.h"

namespace vdb {
namespace farm {

struct CommitterOptions {
  // Must match the farm's analysis options (store entries round-trip
  // through a database built with these).
  VideoDatabaseOptions database;

  // The shared store directory every tenant publishes into.
  std::string dir;

  // When set, publishes ask this vdbserve instance to RELOAD. Reload
  // failures are counted, never fatal.
  std::string reload_host;
  int reload_port = 0;

  // Test-only crash injection, forwarded to every store Save.
  FaultHook fault_hook;
};

struct CommitterStats {
  uint64_t publishes = 0;
  uint64_t last_generation = 0;
  int reloads_ok = 0;
  int reload_failures = 0;
  // Reloads skipped because another publish was already waiting: the later
  // commit reloads a strictly newer generation, so per-checkpoint reloads
  // under a busy farm coalesce into one per quiet moment.
  int reloads_coalesced = 0;
  // Publishes that found the store moved on from the committer's picture
  // (another writer, a failed commit that still landed, a corrupt newest
  // generation) and re-derived it with a full Open first. Zero in steady
  // state: every other publish costs O(changed).
  int rederives = 0;
};

// The one publish path of the system: every pipeline checkpoint — a solo
// run's or any farm tenant's — funnels through Publish(), which upserts
// that entry by name into the committer's picture of the store, commits
// the whole catalog as exactly one new store generation, publishes that
// generation's FRAMEINDEX, and (optionally) nudges a vdbserve to reload.
// Serializing here — on top of the store's own per-directory publish lock
// — means N concurrent checkpointing tenants commit contiguous
// generations, each containing every tenant's newest published state.
// Video ids follow name order, whatever order the publishes arrive in.
//
// The picture is per video name only the video's segment ref and its
// shots' token sets, never a CatalogEntry. A publish therefore encodes,
// hashes, writes and tokenizes only the entry it was given; the manifest
// lists the carried refs, and the FRAMEINDEX is rebuilt from the carried
// token sets. The published bytes are exactly those of
// store::CatalogStore::Save of the full catalog in name order followed by
// index::FrameIndex::Build. Carried refs are trusted only while the
// store's publish base is the generation this committer last published or
// loaded with the same refs; otherwise the publish first re-derives the
// picture from a full Open, as Init does.
class Committer {
 public:
  explicit Committer(CommitterOptions options);

  // Adopts whatever the store already holds as the base layer (whichever
  // runs wrote it earlier). A missing store is the normal first-run case:
  // empty base. A corrupt store also starts empty here and surfaces at the
  // first publish.
  void Init();

  // Single-writer publish of one entry. Returns the receipt the pipeline
  // mirrors into its report. A failed publish leaves the committer's
  // picture as it was, never ahead of what the store holds.
  Result<stream::PublishReceipt> Publish(const CatalogEntry& entry);

  CommitterStats stats() const;

 private:
  // What a publish carries of a video it did not change.
  struct Video {
    store::SegmentRef segment;
    index::ShotTokens shot_tokens;
  };

  // Re-derives videos_ and generation_ from the newest loadable generation
  // (empty when none loads), taking refs from its verified manifest. With
  // `live` given, an entry whose segment is not in it is re-put with
  // CatalogStore::PutSegment, so every ref is then live there.
  Status LoadLocked(store::CatalogStore* store,
                    std::unordered_set<std::string>* live);

  // True when `base` lists exactly the refs of videos_ at generation_.
  bool MirrorsLocked(const store::Manifest& base) const;

  CommitterOptions options_;
  const index::FrameIndexOptions index_options_;
  mutable std::mutex mu_;
  std::map<std::string, Video> videos_;  // by name; ids are positions
  uint64_t generation_ = 0;  // the generation videos_ mirrors; 0: none
  std::atomic<int> waiting_{0};  // publishers queued on mu_ right now
  CommitterStats stats_;
};

}  // namespace farm
}  // namespace vdb

#endif  // VDB_FARM_COMMITTER_H_
