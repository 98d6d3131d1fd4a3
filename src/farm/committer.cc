#include "farm/committer.h"

#include <memory>
#include <utility>

#include "index/index_store.h"
#include "serve/client.h"
#include "util/fs.h"

namespace vdb {
namespace farm {

Committer::Committer(CommitterOptions options)
    : options_(std::move(options)) {}

Status Committer::LoadLocked(store::CatalogStore* store,
                             std::unordered_set<std::string>* live) {
  videos_.clear();
  generation_ = 0;
  store::OpenStats opened_stats;
  Result<std::unique_ptr<VideoDatabase>> opened = store->Open(&opened_stats);
  if (!opened.ok()) return Status::Ok();  // nothing loads: empty base
  const VideoDatabase& db = **opened;
  VDB_ASSIGN_OR_RETURN(store::Manifest manifest,
                       store->ManifestAt(opened_stats.generation));
  // Upsert in id order, so a name listed twice keeps its last entry.
  std::map<std::string, const CatalogEntry*> by_name;
  for (int id = 0; id < db.video_count(); ++id) {
    const CatalogEntry* entry = db.GetEntry(id).value();
    by_name[entry->name] = entry;
  }
  for (const auto& [name, entry] : by_name) {
    Video video;
    video.segment = manifest.segments[static_cast<size_t>(entry->video_id)];
    if (live != nullptr && live->count(video.segment.file) == 0) {
      VDB_ASSIGN_OR_RETURN(video.segment, store->PutSegment(*entry, live));
    }
    video.shot_tokens = index::TokenizeShots(entry->signatures, entry->shots,
                                             index_options_.tokenizer);
    videos_.emplace(name, std::move(video));
  }
  generation_ = opened_stats.generation;
  return Status::Ok();
}

bool Committer::MirrorsLocked(const store::Manifest& base) const {
  if (base.generation != generation_ ||
      base.segments.size() != videos_.size()) {
    return false;
  }
  auto ref = base.segments.begin();
  for (const auto& [name, video] : videos_) {
    if (video.segment != *ref++) return false;
  }
  return true;
}

void Committer::Init() {
  std::lock_guard<std::mutex> lock(mu_);
  store::CatalogStore store(
      options_.dir, store::StoreOptions{options_.database, options_.fault_hook});
  // On failure (the manifest Open just read vanished) the picture is
  // empty, and the first publish re-derives it from what the store holds.
  (void)LoadLocked(&store, nullptr);
}

Result<stream::PublishReceipt> Committer::Publish(const CatalogEntry& entry) {
  VDB_RETURN_IF_ERROR(VideoDatabase::CheckRestorable(entry));
  Video changed;
  changed.shot_tokens = index::TokenizeShots(entry.signatures, entry.shots,
                                             index_options_.tokenizer);

  waiting_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  waiting_.fetch_sub(1, std::memory_order_relaxed);

  store::CatalogStore store(
      options_.dir, store::StoreOptions{options_.database, options_.fault_hook});
  store::Manifest next;
  {
    store::ScopedPublishLock publish_lock(options_.dir);
    VDB_RETURN_IF_ERROR(CreateDirIfMissing(options_.dir));
    VDB_ASSIGN_OR_RETURN(store::Manifest base, store.PublishBase());
    std::unordered_set<std::string> live;
    for (const store::SegmentRef& ref : base.segments) {
      live.insert(ref.file);
    }
    // Carried refs must be live in the generation being extended. When the
    // store moved on without this committer (another writer, a torn or
    // corrupt newest generation), re-derive from what actually loads.
    if (!MirrorsLocked(base)) {
      ++stats_.rederives;
      VDB_RETURN_IF_ERROR(LoadLocked(&store, &live));
    }
    VDB_ASSIGN_OR_RETURN(changed.segment, store.PutSegment(entry, &live));

    // Upsert, publish, and undo the upsert if the manifest did not land:
    // the picture never runs ahead of the disk.
    auto [slot, inserted] = videos_.try_emplace(entry.name);
    Video previous = std::exchange(slot->second, std::move(changed));
    next.generation = base.generation + 1;
    next.segments.reserve(videos_.size());
    for (const auto& [name, video] : videos_) {
      next.segments.push_back(video.segment);
    }
    Status published = store.PublishManifest(next);
    if (!published.ok()) {
      if (inserted) {
        videos_.erase(slot);
      } else {
        slot->second = std::move(previous);
      }
      return published;
    }
    generation_ = next.generation;
  }

  ++stats_.publishes;
  stats_.last_generation = next.generation;

  // Publish the frame index of the generation just saved, so a server that
  // reloads it finds a matching FRAMEINDEX and skips the rebuild. Video ids
  // are name positions, as in the manifest, so this equals
  // FrameIndex::Build of that catalog without tokenizing any carried shot.
  // Best-effort: a failed or interrupted index publish never fails the
  // checkpoint — readers fall back to rebuilding in memory — so the fault
  // hook (which simulates kills to prove checkpoint durability)
  // deliberately does not extend into it.
  index::FrameIndex frame_index(index_options_);
  int video_id = 0;
  for (const auto& [name, video] : videos_) {
    frame_index.AddVideo(video_id++, video.shot_tokens);
  }
  frame_index.Freeze();
  Status index_saved = index::SaveFrameIndex(
      options_.dir, next.generation, frame_index, /*fault_hook=*/nullptr);
  (void)index_saved;

  stream::PublishReceipt receipt;
  receipt.generation = next.generation;

  if (!options_.reload_host.empty() && options_.reload_port > 0) {
    if (waiting_.load(std::memory_order_relaxed) > 0) {
      // Another tenant's publish is already queued behind us; let its
      // commit carry the reload so the server loads the newer generation
      // once instead of churning through every intermediate one.
      ++stats_.reloads_coalesced;
    } else {
      Result<serve::Client> client =
          serve::Client::Connect(options_.reload_host, options_.reload_port);
      bool reloaded = client.ok();
      if (reloaded) reloaded = client->Reload().ok();
      if (reloaded) {
        ++stats_.reloads_ok;
        receipt.reloads_ok = 1;
      } else {
        ++stats_.reload_failures;
        receipt.reload_failures = 1;
      }
    }
  }
  return receipt;
}

CommitterStats Committer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace farm
}  // namespace vdb
