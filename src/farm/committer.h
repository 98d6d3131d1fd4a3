#ifndef VDB_FARM_COMMITTER_H_
#define VDB_FARM_COMMITTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/video_database.h"
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
};

// The one publish path of the system: every pipeline checkpoint — a solo
// run's or any farm tenant's — funnels through Publish(), which upserts
// that entry by name into the committer's picture of the store, saves the
// whole catalog as exactly one new store generation, publishes that
// generation's FRAMEINDEX, and (optionally) nudges a vdbserve to reload.
// Serializing here — on top of the store's own per-directory publish lock
// — means N concurrent checkpointing tenants commit contiguous
// generations, each containing every tenant's newest published state.
// Video ids follow name order, whatever order the publishes arrive in.
class Committer {
 public:
  explicit Committer(CommitterOptions options);

  // Adopts whatever the store already holds as the base layer (whichever
  // runs wrote it earlier). A missing store is the normal first-run case:
  // empty base. A corrupt store also starts empty here and surfaces at the
  // first Save.
  void Init();

  // Single-writer publish of one entry. Returns the receipt the pipeline
  // mirrors into its report.
  Result<stream::PublishReceipt> Publish(const CatalogEntry& entry);

  CommitterStats stats() const;

 private:
  CommitterOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, CatalogEntry> entries_;  // newest entry per name
  std::atomic<int> waiting_{0};  // publishers queued on mu_ right now
  CommitterStats stats_;
};

}  // namespace farm
}  // namespace vdb

#endif  // VDB_FARM_COMMITTER_H_
