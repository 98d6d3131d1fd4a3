#include "core/video_database.h"

#include <atomic>
#include <functional>
#include <mutex>

#include "core/kernels.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "video/video_io.h"

namespace vdb {
namespace {

// Analysis stages shared by all ingest paths once the signatures exist:
// detection, features, scene tree.
Status AnalyseFromSignatures(const VideoDatabaseOptions& options,
                             CatalogEntry* entry) {
  CameraTrackingDetector detector(options.detector);
  VDB_ASSIGN_OR_RETURN(ShotDetectionResult detection,
                       detector.DetectFromSignatures(entry->signatures));
  entry->shots = std::move(detection.shots);
  entry->sbd_stats = detection.stage_stats;

  VDB_ASSIGN_OR_RETURN(entry->features,
                       ComputeAllShotFeatures(entry->signatures,
                                              entry->shots));

  SceneTreeBuilder builder(options.scene_tree);
  VDB_ASSIGN_OR_RETURN(entry->scene_tree,
                       builder.Build(entry->signatures, entry->shots));
  return Status::Ok();
}

// The full analysis pipeline for an in-memory video: Step 1 signatures and
// segmentation, Step 2 tree, Step 3 features. Fills everything except
// video_id, and touches no database state — safe to run on any thread.
Status AnalyseVideo(const VideoDatabaseOptions& options, const Video& video,
                    CatalogEntry* entry) {
  entry->name = video.name();
  entry->frame_count = video.frame_count();
  entry->fps = video.fps();
  VDB_ASSIGN_OR_RETURN(entry->signatures, ComputeVideoSignatures(video));
  return AnalyseFromSignatures(options, entry);
}

// Streaming analysis from a .vdb file: one frame resident at a time.
Status AnalyseFile(const VideoDatabaseOptions& options,
                   const std::string& path, CatalogEntry* entry) {
  VDB_ASSIGN_OR_RETURN(VideoFileReader reader, VideoFileReader::Open(path));
  entry->name = reader.name();
  entry->frame_count = reader.frame_count();
  entry->fps = reader.fps();

  VDB_ASSIGN_OR_RETURN(
      entry->signatures.geometry,
      ComputeAreaGeometry(reader.width(), reader.height()));
  entry->signatures.frames.reserve(
      static_cast<size_t>(reader.frame_count()));
  // One workspace for the whole file: after the first frame the reduce
  // loop runs allocation-free (batch ingest runs one AnalyseFile per pool
  // worker, so the workspace is worker-private).
  PyramidWorkspace workspace;
  while (!reader.AtEnd()) {
    // One frame resident at a time: decode, reduce, discard.
    VDB_ASSIGN_OR_RETURN(Frame frame, reader.ReadNextFrame());
    VDB_ASSIGN_OR_RETURN(
        FrameSignature fs,
        ComputeFrameSignature(frame, entry->signatures.geometry, &workspace));
    entry->signatures.frames.push_back(std::move(fs));
  }
  return AnalyseFromSignatures(options, entry);
}

}  // namespace

VideoDatabase::VideoDatabase(VideoDatabaseOptions options)
    : options_(options) {}

int VideoDatabase::CommitLocked(std::unique_ptr<CatalogEntry> entry) {
  entry->video_id = VideoCountLocked();
  index_.AddVideo(entry->video_id, entry->features);
  int id = entry->video_id;
  catalog_.push_back(std::move(entry));
  return id;
}

Result<int> VideoDatabase::Ingest(const Video& video) {
  auto entry = std::make_unique<CatalogEntry>();
  VDB_RETURN_IF_ERROR(AnalyseVideo(options_, video, entry.get()));
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CommitLocked(std::move(entry));
}

Result<int> VideoDatabase::IngestFile(const std::string& path) {
  auto entry = std::make_unique<CatalogEntry>();
  VDB_RETURN_IF_ERROR(AnalyseFile(options_, path, entry.get()));
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CommitLocked(std::move(entry));
}

BatchIngestResult VideoDatabase::IngestBatchImpl(
    int count, const IngestOptions& options,
    const std::function<Status(int, CatalogEntry*)>& analyse) {
  BatchIngestResult out;
  out.video_ids.assign(static_cast<size_t>(count), -1);
  out.statuses.assign(static_cast<size_t>(count), Status::Ok());
  if (count == 0) return out;

  // Phase 1: analyse every video concurrently. Each task owns its slot of
  // `analysed`/`statuses`, so no locking is needed beyond the pool's own.
  std::vector<std::unique_ptr<CatalogEntry>> analysed(
      static_cast<size_t>(count));
  std::vector<unsigned char> failed_analysis(static_cast<size_t>(count), 0);
  int threads =
      options.num_threads <= 0 ? HardwareThreads() : options.num_threads;
  ThreadPool pool(std::min(threads, count));
  std::atomic<bool> abort{false};
  for (int i = 0; i < count; ++i) {
    pool.Submit([&, i]() -> Status {
      size_t slot = static_cast<size_t>(i);
      if (options.fail_fast && abort.load(std::memory_order_acquire)) {
        out.statuses[slot] = Status::FailedPrecondition(
            "skipped: an earlier video in the batch failed (fail_fast)");
        return Status::Ok();
      }
      auto entry = std::make_unique<CatalogEntry>();
      Status s = analyse(i, entry.get());
      if (s.ok()) {
        analysed[slot] = std::move(entry);
      } else {
        out.statuses[slot] = std::move(s);
        failed_analysis[slot] = 1;
        abort.store(true, std::memory_order_release);
      }
      return Status::Ok();  // per-slot statuses carry the real outcomes
    });
  }
  pool.Wait();

  for (int i = 0; i < count; ++i) {
    if (failed_analysis[static_cast<size_t>(i)]) {
      out.first_error = out.statuses[static_cast<size_t>(i)];
      break;
    }
  }

  // Phase 2: commit. With fail_fast the batch is all-or-nothing; otherwise
  // the successes land in input order and failures are reported per slot.
  if (options.fail_fast && !out.first_error.ok()) {
    for (int i = 0; i < count; ++i) {
      size_t slot = static_cast<size_t>(i);
      if (analysed[slot] != nullptr) {
        out.statuses[slot] = Status::FailedPrecondition(
            "analysed but not committed: batch aborted (fail_fast)");
      }
    }
    return out;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (int i = 0; i < count; ++i) {
    size_t slot = static_cast<size_t>(i);
    if (analysed[slot] == nullptr) continue;
    out.video_ids[slot] = CommitLocked(std::move(analysed[slot]));
    ++out.committed;
  }
  return out;
}

BatchIngestResult VideoDatabase::IngestBatch(const std::vector<Video>& videos,
                                             const IngestOptions& options) {
  return IngestBatchImpl(
      static_cast<int>(videos.size()), options,
      [&](int i, CatalogEntry* entry) {
        return AnalyseVideo(options_, videos[static_cast<size_t>(i)], entry);
      });
}

BatchIngestResult VideoDatabase::IngestBatchFiles(
    const std::vector<std::string>& paths, const IngestOptions& options) {
  return IngestBatchImpl(
      static_cast<int>(paths.size()), options,
      [&](int i, CatalogEntry* entry) {
        return AnalyseFile(options_, paths[static_cast<size_t>(i)], entry);
      });
}

Status VideoDatabase::CheckRestorable(const CatalogEntry& entry) {
  if (entry.frame_count <= 0 ||
      entry.frame_count != static_cast<int>(entry.signatures.frames.size())) {
    return Status::InvalidArgument(
        StrFormat("entry '%s' has inconsistent frame counts",
                  entry.name.c_str()));
  }
  if (entry.shots.size() != entry.features.size()) {
    return Status::InvalidArgument(
        StrFormat("entry '%s' has %zu shots but %zu feature rows",
                  entry.name.c_str(), entry.shots.size(),
                  entry.features.size()));
  }
  if (entry.scene_tree.shot_count() != static_cast<int>(entry.shots.size())) {
    return Status::InvalidArgument(
        StrFormat("entry '%s' tree covers %d shots, entry has %zu",
                  entry.name.c_str(), entry.scene_tree.shot_count(),
                  entry.shots.size()));
  }
  return entry.scene_tree.Validate();
}

Result<int> VideoDatabase::Restore(CatalogEntry entry) {
  VDB_RETURN_IF_ERROR(CheckRestorable(entry));
  auto stored = std::make_unique<CatalogEntry>(std::move(entry));
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CommitLocked(std::move(stored));
}

int VideoDatabase::video_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return VideoCountLocked();
}

Result<const CatalogEntry*> VideoDatabase::GetEntryLocked(
    int video_id) const {
  if (video_id < 0 || video_id >= VideoCountLocked()) {
    return Status::NotFound(StrFormat("video id %d (have %d videos)",
                                      video_id, VideoCountLocked()));
  }
  return catalog_[static_cast<size_t>(video_id)].get();
}

Result<const CatalogEntry*> VideoDatabase::GetEntry(int video_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetEntryLocked(video_id);
}

Status VideoDatabase::SetClassification(
    int video_id, VideoClassification classification) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (video_id < 0 || video_id >= VideoCountLocked()) {
    return Status::NotFound(StrFormat("video id %d (have %d videos)",
                                      video_id, VideoCountLocked()));
  }
  catalog_[static_cast<size_t>(video_id)]->classification =
      std::move(classification);
  return Status::Ok();
}

Result<BrowsingSuggestion> VideoDatabase::SuggestLocked(
    const QueryMatch& match) const {
  VDB_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       GetEntryLocked(match.entry.video_id));
  BrowsingSuggestion suggestion;
  suggestion.match = match;
  suggestion.video_name = entry->name;
  int node_id = entry->scene_tree.LargestSceneForShot(match.entry.shot_index);
  if (node_id >= 0) {
    const SceneNode& node = entry->scene_tree.node(node_id);
    suggestion.scene_node = node_id;
    suggestion.scene_label = node.Label();
    suggestion.representative_frame = node.representative_frame;
  } else {
    // The shot names no node (its leaf was out-named); fall back to the
    // leaf itself.
    const SceneNode& leaf = entry->scene_tree.node(
        entry->scene_tree.LeafForShot(match.entry.shot_index));
    suggestion.scene_node = leaf.id;
    suggestion.scene_label = leaf.Label();
    suggestion.representative_frame = leaf.representative_frame;
  }
  return suggestion;
}

Result<std::vector<BrowsingSuggestion>> VideoDatabase::Search(
    const VarianceQuery& query, int top_k) const {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<QueryMatch> matches = index_.QueryTopK(query, top_k);
  std::vector<BrowsingSuggestion> suggestions;
  suggestions.reserve(matches.size());
  for (const QueryMatch& m : matches) {
    VDB_ASSIGN_OR_RETURN(BrowsingSuggestion s, SuggestLocked(m));
    suggestions.push_back(std::move(s));
  }
  return suggestions;
}

Result<std::vector<BrowsingSuggestion>> VideoDatabase::SearchWithinClass(
    const VarianceQuery& query, int top_k, const ClassFilter& filter) const {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  // How many indexed shots can match the filter at all (stops the band
  // widening early when the class is small).
  int max_matching = 0;
  std::vector<bool> video_matches(static_cast<size_t>(VideoCountLocked()));
  for (int id = 0; id < VideoCountLocked(); ++id) {
    bool ok = filter.Matches(catalog_[static_cast<size_t>(id)]->classification);
    video_matches[static_cast<size_t>(id)] = ok;
    if (ok) {
      max_matching += static_cast<int>(
          catalog_[static_cast<size_t>(id)]->shots.size());
    }
  }
  std::vector<QueryMatch> matches = index_.QueryTopKWhere(
      query, top_k,
      [&](const IndexEntry& e) {
        return e.video_id >= 0 && e.video_id < VideoCountLocked() &&
               video_matches[static_cast<size_t>(e.video_id)];
      },
      max_matching);
  std::vector<BrowsingSuggestion> suggestions;
  suggestions.reserve(matches.size());
  for (const QueryMatch& m : matches) {
    VDB_ASSIGN_OR_RETURN(BrowsingSuggestion s, SuggestLocked(m));
    suggestions.push_back(std::move(s));
  }
  return suggestions;
}

Result<std::vector<BrowsingSuggestion>> VideoDatabase::SearchBanded(
    const VarianceQuery& query, int top_k, const ClassFilter* filter,
    int64_t* in_band, int64_t* eligible) const {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<bool> video_matches;
  int max_matching = index_.size();
  if (filter != nullptr) {
    max_matching = 0;
    video_matches.resize(static_cast<size_t>(VideoCountLocked()));
    for (int id = 0; id < VideoCountLocked(); ++id) {
      bool ok =
          filter->Matches(catalog_[static_cast<size_t>(id)]->classification);
      video_matches[static_cast<size_t>(id)] = ok;
      if (ok) {
        max_matching +=
            static_cast<int>(catalog_[static_cast<size_t>(id)]->shots.size());
      }
    }
  }
  std::function<bool(const IndexEntry&)> keep;
  if (filter != nullptr) {
    keep = [&](const IndexEntry& e) {
      return e.video_id >= 0 && e.video_id < VideoCountLocked() &&
             video_matches[static_cast<size_t>(e.video_id)];
    };
  }
  std::vector<QueryMatch> matches =
      index_.QueryBand(query, top_k, keep, in_band);
  if (eligible != nullptr) *eligible = max_matching;
  std::vector<BrowsingSuggestion> suggestions;
  suggestions.reserve(matches.size());
  for (const QueryMatch& m : matches) {
    VDB_ASSIGN_OR_RETURN(BrowsingSuggestion s, SuggestLocked(m));
    suggestions.push_back(std::move(s));
  }
  return suggestions;
}

Result<std::vector<BrowsingSuggestion>> VideoDatabase::SearchSimilarToShot(
    int video_id, int shot_index, int top_k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  VDB_ASSIGN_OR_RETURN(const CatalogEntry* entry, GetEntryLocked(video_id));
  if (shot_index < 0 ||
      shot_index >= static_cast<int>(entry->features.size())) {
    return Status::NotFound(StrFormat("shot %d of video %d", shot_index,
                                      video_id));
  }
  const ShotFeatures& f = entry->features[static_cast<size_t>(shot_index)];
  VarianceQuery query;
  query.var_ba = f.var_ba;
  query.var_oa = f.var_oa;
  std::vector<QueryMatch> matches =
      index_.QueryTopK(query, top_k, video_id, shot_index);
  std::vector<BrowsingSuggestion> suggestions;
  suggestions.reserve(matches.size());
  for (const QueryMatch& m : matches) {
    VDB_ASSIGN_OR_RETURN(BrowsingSuggestion s, SuggestLocked(m));
    suggestions.push_back(std::move(s));
  }
  return suggestions;
}

}  // namespace vdb
