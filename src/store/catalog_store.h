#ifndef VDB_STORE_CATALOG_STORE_H_
#define VDB_STORE_CATALOG_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/video_database.h"
#include "util/fs.h"
#include "util/result.h"

namespace vdb {
namespace store {

// A segmented, generation-versioned, crash-safe catalog store: the one
// on-disk catalog format. Everything that persists a catalog (vdbtool, the
// streaming Committer, the ingest farm, store-shard) saves a store
// directory, and everything that serves one (vdbserve, RELOAD) opens it.
//
// Layout of a store directory:
//
//   <dir>/seg-<fnv64><size>.seg   one checksummed segment per video entry
//   <dir>/MANIFEST-<generation>   the list of live segments, in id order
//   <dir>/*.tmp                   in-flight publishes (ignored by readers)
//
// A segment holds one serialized CatalogEntry (the catalog_io entry codec)
// behind a magic + FNV-1a checksum header, and is *content-addressed*: its
// file name is derived from the FNV-1a64 hash and size of its payload, so
// an unchanged video re-saves as a pure manifest reference with no byte of
// segment I/O. A manifest lists, per video: its name, segment file, payload
// size and FNV-1a checksum, all behind its own checksummed header.
//
// Publish protocol: every new segment is written to a temp file, fsynced,
// renamed into place, and the directory synced (PutSegment); only then is
// MANIFEST-<N+1> published the same way (PublishManifest). A reader
// therefore always sees either generation N or generation N+1 — a crash at
// any point leaves at worst orphan segments and temp files that the next
// Compact() collects, and never touches the segments generation N
// references.
//
// Open walks the manifests newest-first and returns the first generation
// that loads and verifies completely, so a corrupt newest generation
// (torn manifest, flipped segment bit) silently falls back to the previous
// one; the fallback is reported in OpenStats for the serving layer's
// reload_failures metric.

// One live segment as listed by a manifest.
struct SegmentRef {
  std::string video_name;
  std::string file;               // name within the store directory
  uint64_t payload_size = 0;      // serialized entry bytes
  uint32_t payload_checksum = 0;  // FNV-1a32 of the payload

  friend bool operator==(const SegmentRef&, const SegmentRef&) = default;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<SegmentRef> segments;  // in video-id order
};

struct SaveStats {
  uint64_t generation = 0;  // the generation this Save published
  int segments_written = 0;
  int segments_reused = 0;  // carried over from the previous generation
};

struct OpenStats {
  uint64_t generation = 0;      // the generation actually opened
  int generations_skipped = 0;  // newer generations that failed to load
  Status skipped_error;         // the newest skipped generation's failure
};

struct CompactStats {
  uint64_t kept_generation = 0;
  int removed_files = 0;  // old manifests, orphan segments, temp files
};

struct StoreOptions {
  // Options for databases built by Open.
  VideoDatabaseOptions database;

  // Test-only crash injection: consulted before every durability-relevant
  // file operation of a Save (see util/fs.h). Never set in production.
  FaultHook fault_hook;
};

// Serializes publishes into one store directory within this process: Save
// and PublishManifest take the directory's lock internally, so any
// number of threads — checkpointing pipelines, an ingest farm's tenants, a
// vdbtool run on another thread — commit strictly one generation after
// another: contiguous numbering, no lost commits, no torn interleaving of
// "read current generation / write segments / publish manifest".
//
// The lock is keyed by the directory *path string* (the registry lives for
// the process; one mutex per distinct path). It is recursive, so a caller
// may hold a ScopedPublishLock across a wider read-modify-write section
// (PublishBase → PutSegment → PublishManifest, as farm::Committer does)
// and the inner acquisitions nest harmlessly.
// Cross-process publishes are not arbitrated — one committer process per
// store directory is the deployment contract.
class ScopedPublishLock {
 public:
  explicit ScopedPublishLock(const std::string& dir);
  ~ScopedPublishLock();

  ScopedPublishLock(const ScopedPublishLock&) = delete;
  ScopedPublishLock& operator=(const ScopedPublishLock&) = delete;

 private:
  std::shared_ptr<std::recursive_mutex> mu_;
};

class CatalogStore {
 public:
  explicit CatalogStore(std::string dir, StoreOptions options = {});

  // Publishes the whole of `db`, in id order, as the next generation: under
  // the directory's ScopedPublishLock, PutSegment for every entry against
  // the files live in PublishBase(), then PublishManifest. Incremental: only
  // segments whose content is not already live are written; the rest are
  // carried over by reference. Creates the directory if missing. Concurrent
  // Saves of one directory commit contiguous generations, no commit lost.
  Result<SaveStats> Save(const VideoDatabase& db);

  // The publish primitives Save is a loop over, for a caller that keeps its
  // own segment refs and encodes only what changed (farm::Committer). Hold
  // the directory's ScopedPublishLock across all three, or another publish
  // may slip in between.
  //
  // The generation the next publish extends: the newest parseable manifest.
  // When none parses, an empty manifest numbered like the newest listed
  // one, so nothing is carried over; generation 0 for an empty store.
  Result<Manifest> PublishBase() const;

  // Encodes `entry` (one serialization, one FNV-1a32 and one FNV-1a64 pass)
  // into the ref a manifest lists for it, and writes its content-addressed
  // segment unless `live` already holds that file; a written file joins
  // `live`. `live` must start as the files of the generation being
  // extended: a manifest may only carry segments live in the generation it
  // extends. Counts the write or reuse into `stats` when given.
  Result<SegmentRef> PutSegment(const CatalogEntry& entry,
                                std::unordered_set<std::string>* live,
                                SaveStats* stats = nullptr);

  // Publishes `manifest` as MANIFEST-<generation> (temp file + fsync +
  // rename + directory sync): the commit point that flips readers to it.
  // Every referenced segment must already be durable in the directory.
  // Creates the directory if missing. `vdbtool store-shard` also uses it:
  // segments are content-addressed, so a shard store is links to the source
  // segments plus a manifest listing its subset.
  Status PublishManifest(const Manifest& manifest);

  // Loads the newest generation that verifies completely (every manifest
  // and segment checksum) into a fresh database. Falls back generation by
  // generation past corruption; fails only when no generation loads.
  Result<std::unique_ptr<VideoDatabase>> Open(OpenStats* stats = nullptr) const;

  // The newest parseable manifest, without reading any segment.
  Result<Manifest> CurrentManifest() const;

  // The manifest of one specific generation, without reading any segment.
  Result<Manifest> ManifestAt(uint64_t generation) const;

  // Garbage-collects everything the newest *loadable* generation does not
  // reference: manifests of older (and corrupt newer) generations, orphan
  // segments from abandoned publishes, and leftover temp files. Verifies
  // that generation loads end-to-end before deleting anything.
  Result<CompactStats> Compact();

  const std::string& dir() const { return dir_; }

 private:
  // All MANIFEST-* generations present in the directory, newest first.
  Result<std::vector<uint64_t>> ListGenerations() const;
  Result<Manifest> LoadManifest(uint64_t generation) const;
  // Full verify-and-load of one generation.
  Result<std::unique_ptr<VideoDatabase>> LoadGeneration(
      const Manifest& manifest) const;

  std::string dir_;
  StoreOptions options_;
};

}  // namespace store
}  // namespace vdb

#endif  // VDB_STORE_CATALOG_STORE_H_
