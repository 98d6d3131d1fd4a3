#include "farm/committer.h"

#include <utility>

#include "index/frame_index.h"
#include "index/index_store.h"
#include "serve/client.h"
#include "store/catalog_store.h"

namespace vdb {
namespace farm {

Committer::Committer(CommitterOptions options)
    : options_(std::move(options)) {}

void Committer::Init() {
  std::lock_guard<std::mutex> lock(mu_);
  store::CatalogStore store(
      options_.dir, store::StoreOptions{options_.database, options_.fault_hook});
  Result<std::unique_ptr<VideoDatabase>> opened = store.Open();
  if (!opened.ok()) return;  // missing store: first publish creates it
  const VideoDatabase& db = **opened;
  for (int id = 0; id < db.video_count(); ++id) {
    Result<const CatalogEntry*> entry = db.GetEntry(id);
    if (!entry.ok()) continue;
    entries_[(*entry)->name] = **entry;
  }
}

Result<stream::PublishReceipt> Committer::Publish(const CatalogEntry& entry) {
  waiting_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  waiting_.fetch_sub(1, std::memory_order_relaxed);

  entries_[entry.name] = entry;

  // Rebuild the full catalog and save it as one generation. Entries are
  // keyed by name in a std::map, so the rebuilt database's video order —
  // and therefore the published bytes — is deterministic regardless of
  // which checkpoint triggered this commit.
  VideoDatabase db(options_.database);
  for (const auto& [name, e] : entries_) {
    (void)name;
    Result<int> restored = db.Restore(e);
    if (!restored.ok()) return restored.status();
  }

  store::CatalogStore store(
      options_.dir, store::StoreOptions{options_.database, options_.fault_hook});
  Result<store::SaveStats> saved = store.Save(db);
  if (!saved.ok()) return saved.status();

  ++stats_.publishes;
  stats_.last_generation = saved->generation;

  // Publish the frame index of the generation just saved, so a server that
  // reloads it finds a matching FRAMEINDEX and skips the rebuild.
  // Best-effort: a failed or interrupted index publish never fails the
  // checkpoint — readers fall back to rebuilding in memory — so the fault
  // hook (which simulates kills to prove checkpoint durability)
  // deliberately does not extend into it.
  index::FrameIndex frame_index = index::FrameIndex::Build(db);
  Status index_saved = index::SaveFrameIndex(
      options_.dir, saved->generation, frame_index, /*fault_hook=*/nullptr);
  (void)index_saved;

  stream::PublishReceipt receipt;
  receipt.generation = saved->generation;

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
