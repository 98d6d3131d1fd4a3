#ifndef VDB_CORE_VIDEO_DATABASE_H_
#define VDB_CORE_VIDEO_DATABASE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "core/genre.h"
#include "core/features.h"
#include "core/scene_tree.h"
#include "core/shot_detector.h"
#include "core/variance_index.h"
#include "util/result.h"
#include "video/video.h"

namespace vdb {

// Everything the database derives from one ingested video.
struct CatalogEntry {
  int video_id = -1;
  std::string name;
  int frame_count = 0;
  double fps = 0.0;

  // Optional genre/form tags (Section 4.1); empty when never set.
  VideoClassification classification;

  VideoSignatures signatures;
  std::vector<Shot> shots;
  SbdStageStats sbd_stats;
  std::vector<ShotFeatures> features;
  SceneTree scene_tree;
};

// A retrieval answer: a matching shot plus the largest scene-tree node that
// shares its representative frame — the suggested place to start browsing
// (Section 4.2).
struct BrowsingSuggestion {
  QueryMatch match;
  std::string video_name;
  int scene_node = -1;       // node id within the video's scene tree
  std::string scene_label;   // e.g. "SN_7^1"
  int representative_frame = -1;
};

// Knobs for the whole ingest pipeline.
struct VideoDatabaseOptions {
  CameraTrackingOptions detector;
  SceneTreeOptions scene_tree;
};

// Knobs for IngestBatch.
struct IngestOptions {
  // Worker threads for the analysis phase; <= 0 uses HardwareThreads().
  int num_threads = 0;

  // When true (default) the batch is atomic: the first failure stops
  // scheduling further analyses and nothing is committed. When false every
  // video is analysed; the successes commit (in input order) and failures
  // are reported per slot.
  bool fail_fast = true;
};

// Per-batch outcome. `video_ids` and `statuses` parallel the input vector:
// a committed video has its id and an OK status; a failed one has id -1 and
// the failure; a video skipped or rolled back by fail_fast has id -1 and a
// FailedPrecondition status naming the reason.
struct BatchIngestResult {
  std::vector<int> video_ids;
  std::vector<Status> statuses;
  int committed = 0;

  bool ok() const { return first_error.ok(); }

  // The first failure in input order (OK when the whole batch committed).
  Status first_error;
};

// The integrated framework of the paper: ingest segments each video into
// shots (Step 1), builds its scene tree (Step 2), and indexes its shots by
// variance features (Step 3); queries return browsing suggestions.
//
// Thread safety: all public methods are safe to call concurrently. Reads
// (GetEntry, Search*, video_count, index) take a shared lock; ingest
// commits and SetClassification take an exclusive lock. Batch ingest
// analyses videos outside the lock, so queries keep running while a batch
// is in flight and only the (cheap) commit serialises against them.
// CatalogEntry pointers returned by GetEntry stay valid for the lifetime
// of the database: entries are never removed and, except for
// `classification`, never modified after commit.
class VideoDatabase {
 public:
  explicit VideoDatabase(VideoDatabaseOptions options = VideoDatabaseOptions());

  VideoDatabase(const VideoDatabase&) = delete;
  VideoDatabase& operator=(const VideoDatabase&) = delete;

  // Runs the full pipeline on `video` and returns its video id.
  Result<int> Ingest(const Video& video);

  // Streaming ingest from a .vdb file: frames are decoded and reduced to
  // signatures one at a time, so memory stays bounded by one frame plus
  // the signatures — a multi-gigabyte clip ingests without ever being
  // resident. Produces the same analysis as Ingest(ReadVideoFile(path)).
  Result<int> IngestFile(const std::string& path);

  // Analyses every video on a thread pool, then commits the results in
  // input order under one exclusive lock. Ids are assigned at commit time,
  // so the catalog is identical to sequentially ingesting the same vector
  // regardless of num_threads. Queries remain serviceable throughout.
  BatchIngestResult IngestBatch(const std::vector<Video>& videos,
                                const IngestOptions& options = IngestOptions());

  // IngestBatch over .vdb files (the streaming IngestFile pipeline per
  // worker, so peak memory is one frame per thread plus signatures).
  BatchIngestResult IngestBatchFiles(
      const std::vector<std::string>& paths,
      const IngestOptions& options = IngestOptions());

  // Installs an already-analysed entry (catalog restore): validates its
  // internal consistency, assigns the next video id, and indexes its
  // shots. No pixel data is touched.
  Result<int> Restore(CatalogEntry entry);

  // The internal consistency Restore checks, without installing the entry:
  // what a publisher that persists entries without building a database
  // (farm::Committer) refuses on.
  static Status CheckRestorable(const CatalogEntry& entry);

  int video_count() const;

  // Catalog access. Fails for unknown ids.
  Result<const CatalogEntry*> GetEntry(int video_id) const;

  // The live index. Safe to query concurrently with reads, but a reference
  // obtained here is not protected against a concurrent ingest commit —
  // prefer Search* while a batch may be in flight.
  const VarianceIndex& index() const { return index_; }

  // Tags a video with its genre/form classification.
  Status SetClassification(int video_id, VideoClassification classification);

  // Shots matching the variance query, each mapped to the largest scene
  // sharing its representative frame.
  Result<std::vector<BrowsingSuggestion>> Search(const VarianceQuery& query,
                                                 int top_k) const;

  // Like Search, restricted to videos matching `filter` — the paper's
  // "retrieval is performed within one of these 4,655 classes".
  Result<std::vector<BrowsingSuggestion>> SearchWithinClass(
      const VarianceQuery& query, int top_k,
      const ClassFilter& filter) const;

  // Exact-band retrieval for distributed scatter-gather: answers with the
  // top_k nearest shots strictly inside the query's tolerance band — no
  // widening — plus the counts a router needs to drive the widening loop
  // itself: `in_band` is how many shots matched the band (before top-k
  // truncation) and `eligible` is how many indexed shots could ever match
  // (the index size, or the class size when `filter` is non-null — the
  // same bound Search/SearchWithinClass use to stop widening).
  Result<std::vector<BrowsingSuggestion>> SearchBanded(
      const VarianceQuery& query, int top_k, const ClassFilter* filter,
      int64_t* in_band, int64_t* eligible) const;

  // Query-by-example: uses shot `shot_index` of `video_id` as the query and
  // returns the top_k most similar other shots.
  Result<std::vector<BrowsingSuggestion>> SearchSimilarToShot(
      int video_id, int shot_index, int top_k) const;

 private:
  // Unlocked internals; callers hold mu_ (shared suffices unless noted).
  int VideoCountLocked() const { return static_cast<int>(catalog_.size()); }
  Result<const CatalogEntry*> GetEntryLocked(int video_id) const;
  Result<BrowsingSuggestion> SuggestLocked(const QueryMatch& match) const;
  // Assigns the next id, indexes the shots, appends to the catalog.
  // Requires mu_ held exclusively.
  int CommitLocked(std::unique_ptr<CatalogEntry> entry);

  BatchIngestResult IngestBatchImpl(
      int count, const IngestOptions& options,
      const std::function<Status(int, CatalogEntry*)>& analyse);

  VideoDatabaseOptions options_;
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<CatalogEntry>> catalog_;
  VarianceIndex index_;
};

}  // namespace vdb

#endif  // VDB_CORE_VIDEO_DATABASE_H_
