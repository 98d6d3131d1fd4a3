#include "store/catalog_store.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "core/catalog_io.h"
#include "index/index_store.h"
#include "util/binary_io.h"
#include "util/string_util.h"
#include "video/video_io.h"  // Fnv1a32

namespace vdb {
namespace store {
namespace {

constexpr char kSegmentMagic[8] = {'V', 'D', 'B', 'S', 'E', 'G', '0', '1'};
constexpr char kManifestMagic[8] = {'V', 'D', 'B', 'M', 'A', 'N', '0', '1'};
constexpr char kManifestPrefix[] = "MANIFEST-";
constexpr size_t kManifestPrefixLen = sizeof(kManifestPrefix) - 1;

// Caps applied before any allocation while parsing a manifest.
constexpr uint32_t kMaxSegments = 1u << 20;
constexpr size_t kMaxNameLen = 1u << 16;
constexpr uint64_t kMaxSegmentPayload = 1ull << 31;

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint32_t Checksum(std::string_view payload) {
  return Fnv1a32(reinterpret_cast<const uint8_t*>(payload.data()),
                 payload.size());
}

// magic + u32 FNV-1a checksum + payload — the same framing the monolithic
// catalog and the .vdb container use.
std::string WrapChecksummed(const char magic[8], std::string_view payload) {
  std::string out;
  out.reserve(8 + 4 + payload.size());
  out.append(magic, 8);
  BinaryWriter header;
  header.PutU32(Checksum(payload));
  out += header.buffer();
  out.append(payload);
  return out;
}

Result<std::string_view> UnwrapChecksummed(const char magic[8],
                                           std::string_view file,
                                           const char* what) {
  if (file.size() < 12 || std::memcmp(file.data(), magic, 8) != 0) {
    return Status::Corruption(StrFormat("bad %s magic", what));
  }
  BinaryReader header(file.substr(8, 4));
  VDB_ASSIGN_OR_RETURN(uint32_t stored, header.GetU32("checksum"));
  std::string_view payload = file.substr(12);
  uint32_t actual = Checksum(payload);
  if (actual != stored) {
    return Status::Corruption(
        StrFormat("%s checksum mismatch (stored %08x, actual %08x)", what,
                  stored, actual));
  }
  return payload;
}

std::string ManifestName(uint64_t generation) {
  return StrFormat("MANIFEST-%06llu",
                   static_cast<unsigned long long>(generation));
}

std::string SegmentName(uint64_t content_hash, size_t payload_size) {
  return StrFormat("seg-%016llx-%llu.seg",
                   static_cast<unsigned long long>(content_hash),
                   static_cast<unsigned long long>(payload_size));
}

// The generation of a "MANIFEST-<digits>" name; nullopt for anything else
// (including temp files).
bool ParseManifestName(const std::string& name, uint64_t* generation) {
  if (!StartsWith(name, kManifestPrefix) ||
      name.size() == kManifestPrefixLen) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kManifestPrefixLen; i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = value;
  return true;
}

std::string EncodeManifest(const Manifest& manifest) {
  BinaryWriter w;
  w.PutU64(manifest.generation);
  w.PutU32(static_cast<uint32_t>(manifest.segments.size()));
  for (const SegmentRef& ref : manifest.segments) {
    w.PutString(ref.video_name);
    w.PutString(ref.file);
    w.PutU64(ref.payload_size);
    w.PutU32(ref.payload_checksum);
  }
  return w.TakeBuffer();
}

Result<Manifest> DecodeManifest(std::string_view payload) {
  BinaryReader r(payload);
  Manifest manifest;
  VDB_ASSIGN_OR_RETURN(manifest.generation, r.GetU64("manifest generation"));
  VDB_ASSIGN_OR_RETURN(uint32_t count, r.GetU32("segment count"));
  if (count > kMaxSegments) {
    return Status::Corruption(
        StrFormat("implausible segment count %u", count));
  }
  manifest.segments.resize(count);
  for (SegmentRef& ref : manifest.segments) {
    VDB_ASSIGN_OR_RETURN(ref.video_name,
                         r.GetString("segment video name", kMaxNameLen));
    VDB_ASSIGN_OR_RETURN(ref.file, r.GetString("segment file", kMaxNameLen));
    VDB_ASSIGN_OR_RETURN(ref.payload_size, r.GetU64("segment size"));
    if (ref.payload_size > kMaxSegmentPayload) {
      return Status::Corruption(
          StrFormat("implausible segment size %llu",
                    static_cast<unsigned long long>(ref.payload_size)));
    }
    VDB_ASSIGN_OR_RETURN(ref.payload_checksum,
                         r.GetU32("segment checksum"));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after manifest payload");
  }
  return manifest;
}

// One publish mutex per store directory path, for the life of the process.
// The map is tiny (a handful of store dirs) and only consulted at publish
// boundaries, so a global registry mutex is plenty.
std::shared_ptr<std::recursive_mutex> PublishMutexFor(
    const std::string& dir) {
  static std::mutex registry_mu;
  static std::map<std::string, std::shared_ptr<std::recursive_mutex>>* locks =
      new std::map<std::string, std::shared_ptr<std::recursive_mutex>>();
  std::lock_guard<std::mutex> lock(registry_mu);
  std::shared_ptr<std::recursive_mutex>& slot = (*locks)[dir];
  if (slot == nullptr) slot = std::make_shared<std::recursive_mutex>();
  return slot;
}

}  // namespace

ScopedPublishLock::ScopedPublishLock(const std::string& dir)
    : mu_(PublishMutexFor(dir)) {
  mu_->lock();
}

ScopedPublishLock::~ScopedPublishLock() { mu_->unlock(); }

CatalogStore::CatalogStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

Result<std::vector<uint64_t>> CatalogStore::ListGenerations() const {
  VDB_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  std::vector<uint64_t> generations;
  for (const std::string& name : names) {
    uint64_t generation = 0;
    if (ParseManifestName(name, &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.rbegin(), generations.rend());
  return generations;
}

Result<Manifest> CatalogStore::LoadManifest(uint64_t generation) const {
  const std::string path = dir_ + "/" + ManifestName(generation);
  VDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  VDB_ASSIGN_OR_RETURN(std::string_view payload,
                       UnwrapChecksummed(kManifestMagic, contents,
                                         "manifest"));
  VDB_ASSIGN_OR_RETURN(Manifest manifest, DecodeManifest(payload));
  if (manifest.generation != generation) {
    return Status::Corruption(StrFormat(
        "manifest %s claims generation %llu", path.c_str(),
        static_cast<unsigned long long>(manifest.generation)));
  }
  return manifest;
}

Result<std::unique_ptr<VideoDatabase>> CatalogStore::LoadGeneration(
    const Manifest& manifest) const {
  auto db = std::make_unique<VideoDatabase>(options_.database);
  for (const SegmentRef& ref : manifest.segments) {
    const std::string path = dir_ + "/" + ref.file;
    VDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
    VDB_ASSIGN_OR_RETURN(
        std::string_view payload,
        UnwrapChecksummed(kSegmentMagic, contents, "segment"));
    if (payload.size() != ref.payload_size ||
        Checksum(payload) != ref.payload_checksum) {
      return Status::Corruption(
          StrFormat("segment %s does not match its manifest entry",
                    ref.file.c_str()));
    }
    BinaryReader r(payload);
    VDB_ASSIGN_OR_RETURN(CatalogEntry entry, DeserializeCatalogEntry(&r));
    if (!r.AtEnd()) {
      return Status::Corruption("trailing bytes after segment entry: " +
                                ref.file);
    }
    if (entry.name != ref.video_name) {
      return Status::Corruption(
          StrFormat("segment %s holds video '%s', manifest expects '%s'",
                    ref.file.c_str(), entry.name.c_str(),
                    ref.video_name.c_str()));
    }
    VDB_RETURN_IF_ERROR(db->Restore(std::move(entry)).status());
  }
  return db;
}

Result<std::unique_ptr<VideoDatabase>> CatalogStore::Open(
    OpenStats* stats) const {
  VDB_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, ListGenerations());
  if (generations.empty()) {
    return Status::NotFound("no generation in store: " + dir_);
  }
  OpenStats local;
  for (uint64_t generation : generations) {
    Result<Manifest> manifest = LoadManifest(generation);
    Result<std::unique_ptr<VideoDatabase>> db =
        manifest.ok() ? LoadGeneration(*manifest)
                      : Result<std::unique_ptr<VideoDatabase>>(
                            manifest.status());
    if (db.ok()) {
      local.generation = generation;
      if (stats != nullptr) {
        *stats = local;
      }
      return db;
    }
    if (local.generations_skipped == 0) {
      local.skipped_error = db.status();
    }
    ++local.generations_skipped;
  }
  return Status(local.skipped_error.code(),
                StrFormat("no loadable generation in %s (newest: %s)",
                          dir_.c_str(),
                          local.skipped_error.message().c_str()));
}

Result<Manifest> CatalogStore::CurrentManifest() const {
  VDB_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, ListGenerations());
  Status last = Status::NotFound("no generation in store: " + dir_);
  for (uint64_t generation : generations) {
    Result<Manifest> manifest = LoadManifest(generation);
    if (manifest.ok()) {
      return manifest;
    }
    last = manifest.status();
  }
  return last;
}

Result<Manifest> CatalogStore::ManifestAt(uint64_t generation) const {
  return LoadManifest(generation);
}

Result<Manifest> CatalogStore::PublishBase() const {
  Result<Manifest> current = CurrentManifest();
  if (current.ok()) {
    return current;
  }
  if (current.status().code() == StatusCode::kNotFound) {
    return Manifest{};
  }
  // An unreadable directory is an error; a corrupt manifest is not — the
  // next generation starts from scratch (nothing reused).
  if (current.status().code() != StatusCode::kCorruption) {
    return current.status();
  }
  VDB_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, ListGenerations());
  Manifest empty;
  empty.generation = generations.empty() ? 0 : generations.front();
  return empty;
}

Result<SegmentRef> CatalogStore::PutSegment(
    const CatalogEntry& entry, std::unordered_set<std::string>* live,
    SaveStats* stats) {
  BinaryWriter w;
  SerializeCatalogEntry(entry, &w);
  const std::string payload = w.TakeBuffer();
  SegmentRef ref;
  ref.video_name = entry.name;
  ref.payload_size = payload.size();
  ref.payload_checksum = Checksum(payload);
  ref.file = SegmentName(
      Fnv1a64(reinterpret_cast<const uint8_t*>(payload.data()),
              payload.size()),
      payload.size());
  if (live->count(ref.file) != 0) {
    if (stats != nullptr) ++stats->segments_reused;
    return ref;
  }
  VDB_RETURN_IF_ERROR(WriteFileAtomic(
      dir_ + "/" + ref.file, WrapChecksummed(kSegmentMagic, payload),
      options_.fault_hook, "segment " + ref.file));
  live->insert(ref.file);
  if (stats != nullptr) ++stats->segments_written;
  return ref;
}

Status CatalogStore::PublishManifest(const Manifest& manifest) {
  ScopedPublishLock publish_lock(dir_);
  VDB_RETURN_IF_ERROR(CreateDirIfMissing(dir_));
  return WriteFileAtomic(dir_ + "/" + ManifestName(manifest.generation),
                         WrapChecksummed(kManifestMagic,
                                         EncodeManifest(manifest)),
                         options_.fault_hook, "manifest");
}

Result<SaveStats> CatalogStore::Save(const VideoDatabase& db) {
  // Single-committer discipline: the whole read-current / write-segments /
  // publish-manifest sequence is one critical section per directory.
  // Without it, two racing Saves both read generation N and both publish
  // MANIFEST-(N+1) — the later rename silently swallows the earlier commit.
  ScopedPublishLock publish_lock(dir_);
  VDB_RETURN_IF_ERROR(CreateDirIfMissing(dir_));

  // The segments the current generation keeps live; content-addressed file
  // names make "unchanged video" equal to "file already live".
  VDB_ASSIGN_OR_RETURN(Manifest base, PublishBase());
  std::unordered_set<std::string> live;
  for (const SegmentRef& ref : base.segments) {
    live.insert(ref.file);
  }

  Manifest next;
  next.generation = base.generation + 1;
  next.segments.reserve(static_cast<size_t>(db.video_count()));
  SaveStats stats;
  stats.generation = next.generation;
  for (int id = 0; id < db.video_count(); ++id) {
    VDB_ASSIGN_OR_RETURN(const CatalogEntry* entry, db.GetEntry(id));
    VDB_ASSIGN_OR_RETURN(SegmentRef ref, PutSegment(*entry, &live, &stats));
    next.segments.push_back(std::move(ref));
  }

  // Every referenced segment is durable; the manifest rename is the commit
  // point that flips readers from generation N to N+1.
  VDB_RETURN_IF_ERROR(PublishManifest(next));
  return stats;
}

Result<CompactStats> CatalogStore::Compact() {
  // Prove the kept generation loads end-to-end before deleting fallbacks.
  OpenStats open_stats;
  VDB_RETURN_IF_ERROR(Open(&open_stats).status());
  VDB_ASSIGN_OR_RETURN(Manifest kept, LoadManifest(open_stats.generation));

  std::unordered_set<std::string> keep;
  keep.insert(ManifestName(kept.generation));
  for (const SegmentRef& ref : kept.segments) {
    keep.insert(ref.file);
  }
  // The kept generation's frame index (index/index_store.h) lives in the
  // same directory, generation-coupled with the manifest; keep its pointer
  // and segment, collect every other generation's alongside the manifests.
  for (const std::string& name :
       index::FrameIndexFiles(dir_, kept.generation)) {
    keep.insert(name);
  }

  VDB_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  CompactStats stats;
  stats.kept_generation = kept.generation;
  for (const std::string& name : names) {
    uint64_t generation = 0;
    // Only touch files the store itself lays out.
    bool managed = ParseManifestName(name, &generation) ||
                   index::ParseFrameIndexPointerName(name, &generation) ||
                   index::IsFrameIndexSegmentName(name) ||
                   EndsWith(name, ".seg") || EndsWith(name, ".tmp");
    if (!managed || keep.count(name) != 0) {
      continue;
    }
    VDB_RETURN_IF_ERROR(RemoveFileIfExists(dir_ + "/" + name));
    ++stats.removed_files;
  }
  if (stats.removed_files > 0) {
    VDB_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return stats;
}

}  // namespace store
}  // namespace vdb
