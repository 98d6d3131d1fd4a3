#include "cluster/shard_store.h"

#include <utility>

#include "store/catalog_store.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace vdb {
namespace cluster {

std::string ShardDirName(int shard_id) {
  return StrFormat("shard-%d", shard_id);
}

Result<SplitStats> SplitStore(const std::string& src_dir,
                              const std::string& out_dir,
                              const ShardMap& map) {
  if (map.shard_count < 1) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  store::CatalogStore source(src_dir);
  // Split the newest generation that actually loads — CurrentManifest alone
  // would happily split a manifest whose segments are corrupt.
  store::OpenStats open_stats;
  VDB_RETURN_IF_ERROR(source.Open(&open_stats).status());
  VDB_ASSIGN_OR_RETURN(store::Manifest manifest,
                       source.ManifestAt(open_stats.generation));

  SplitStats stats;
  stats.generation = open_stats.generation;
  stats.videos_per_shard.assign(static_cast<size_t>(map.shard_count), 0);

  VDB_RETURN_IF_ERROR(CreateDirIfMissing(out_dir));
  std::vector<store::Manifest> shard_manifests(
      static_cast<size_t>(map.shard_count));
  for (auto& m : shard_manifests) {
    m.generation = stats.generation;
  }

  for (const store::SegmentRef& ref : manifest.segments) {
    int shard = map.ShardOf(ref.video_name);
    const std::string shard_dir = out_dir + "/" + ShardDirName(shard);
    VDB_RETURN_IF_ERROR(CreateDirIfMissing(shard_dir));
    const std::string target = shard_dir + "/" + ref.file;
    if (FileExists(target)) {
      // Content-addressed names make "already present" equal to "already
      // identical" — an earlier split (or generation) linked it.
      ++stats.segments_reused;
    } else {
      VDB_RETURN_IF_ERROR(
          LinkOrCopyFile(src_dir + "/" + ref.file, target));
      ++stats.segments_linked;
    }
    shard_manifests[static_cast<size_t>(shard)].segments.push_back(ref);
    ++stats.videos_per_shard[static_cast<size_t>(shard)];
  }

  // Publish every shard — including empty ones, which still need a valid
  // (zero-segment) manifest and a SHARDMAP so a vdbserve can serve them.
  for (int shard = 0; shard < map.shard_count; ++shard) {
    const std::string shard_dir = out_dir + "/" + ShardDirName(shard);
    VDB_RETURN_IF_ERROR(CreateDirIfMissing(shard_dir));
    VDB_RETURN_IF_ERROR(SyncDir(shard_dir));  // linked segments first
    VDB_RETURN_IF_ERROR(store::CatalogStore(shard_dir).PublishManifest(
        shard_manifests[static_cast<size_t>(shard)]));
    ShardMapFile file;
    file.map = map;
    file.shard_id = shard;
    VDB_RETURN_IF_ERROR(SaveShardMap(shard_dir, file));
  }
  return stats;
}

}  // namespace cluster
}  // namespace vdb
