#include "index/index_store.h"

#include <cstring>

#include "util/binary_io.h"
#include "util/string_util.h"
#include "video/video_io.h"  // Fnv1a32

namespace vdb {
namespace index {
namespace {

// Segment format 2 holds postings only; format 1 ("VDBFISEG") also carried
// a per-video Bloom tier. A format-1 segment fails the magic check, so its
// generation falls back to the in-memory rebuild every reader already has.
constexpr char kSegmentMagic[8] = {'V', 'D', 'B', 'F', 'I', 'S', 'G', '2'};
constexpr char kPointerMagic[8] = {'V', 'D', 'B', 'F', 'I', 'P', 'T', 'R'};
constexpr char kPointerPrefix[] = "FRAMEINDEX-";
constexpr size_t kPointerPrefixLen = sizeof(kPointerPrefix) - 1;
constexpr size_t kMaxNameLen = 1u << 16;
constexpr uint64_t kMaxIndexPayload = 1ull << 33;

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

// The same magic + u32 checksum + payload framing as the catalog store's
// segments and manifests.
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
  if (Checksum(payload) != stored) {
    return Status::Corruption(StrFormat("%s checksum mismatch", what));
  }
  return payload;
}

std::string SegmentNameFor(std::string_view payload) {
  return StrFormat(
      "fidx-%016llx-%llu.fidx",
      static_cast<unsigned long long>(
          Fnv1a64(reinterpret_cast<const uint8_t*>(payload.data()),
                  payload.size())),
      static_cast<unsigned long long>(payload.size()));
}

// What FRAMEINDEX-<g> points at.
struct PointerRecord {
  uint64_t generation = 0;
  std::string segment_file;
  uint64_t payload_size = 0;
  uint32_t payload_checksum = 0;
};

Result<PointerRecord> ReadPointer(const std::string& dir,
                                  uint64_t generation) {
  const std::string path = dir + "/" + FrameIndexPointerName(generation);
  if (!FileExists(path)) {
    return Status::NotFound("no frame index for generation " +
                            std::to_string(generation));
  }
  VDB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  VDB_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapChecksummed(kPointerMagic, contents, "frame-index pointer"));
  BinaryReader r(payload);
  PointerRecord record;
  VDB_ASSIGN_OR_RETURN(record.generation, r.GetU64("pointer generation"));
  VDB_ASSIGN_OR_RETURN(record.segment_file,
                       r.GetString("pointer segment file", kMaxNameLen));
  VDB_ASSIGN_OR_RETURN(record.payload_size, r.GetU64("pointer payload size"));
  VDB_ASSIGN_OR_RETURN(record.payload_checksum,
                       r.GetU32("pointer payload checksum"));
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after frame-index pointer");
  }
  if (record.generation != generation ||
      record.payload_size > kMaxIndexPayload ||
      !IsFrameIndexSegmentName(record.segment_file) ||
      record.segment_file.find('/') != std::string::npos) {
    return Status::Corruption(
        StrFormat("frame-index pointer for generation %llu is implausible",
                  static_cast<unsigned long long>(generation)));
  }
  return record;
}

}  // namespace

std::string FrameIndexPointerName(uint64_t generation) {
  return StrFormat("FRAMEINDEX-%06llu",
                   static_cast<unsigned long long>(generation));
}

bool ParseFrameIndexPointerName(const std::string& name,
                                uint64_t* generation) {
  if (!StartsWith(name, kPointerPrefix) || name.size() == kPointerPrefixLen) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPointerPrefixLen; i < name.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = value;
  return true;
}

bool IsFrameIndexSegmentName(const std::string& name) {
  return StartsWith(name, "fidx-") && EndsWith(name, ".fidx");
}

Status SaveFrameIndex(const std::string& dir, uint64_t generation,
                      const FrameIndex& frame_index, const FaultHook& hook) {
  const std::string payload = frame_index.Serialize();
  const std::string segment = SegmentNameFor(payload);
  const std::string segment_path = dir + "/" + segment;
  if (!FileExists(segment_path)) {
    VDB_RETURN_IF_ERROR(WriteFileAtomic(
        segment_path, WrapChecksummed(kSegmentMagic, payload), hook,
        "frame-index segment " + segment));
  }
  BinaryWriter w;
  w.PutU64(generation);
  w.PutString(segment);
  w.PutU64(payload.size());
  w.PutU32(Checksum(payload));
  // The pointer rename is the commit point: the segment above is already
  // durable, so a crash leaves at worst an orphan segment for Compact.
  return WriteFileAtomic(dir + "/" + FrameIndexPointerName(generation),
                         WrapChecksummed(kPointerMagic, w.TakeBuffer()), hook,
                         "frame-index pointer");
}

Result<FrameIndex> OpenFrameIndex(const std::string& dir,
                                  uint64_t generation) {
  VDB_ASSIGN_OR_RETURN(PointerRecord record, ReadPointer(dir, generation));
  VDB_ASSIGN_OR_RETURN(std::string contents,
                       ReadFileToString(dir + "/" + record.segment_file));
  VDB_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapChecksummed(kSegmentMagic, contents, "frame-index segment"));
  if (payload.size() != record.payload_size ||
      Checksum(payload) != record.payload_checksum) {
    return Status::Corruption(
        StrFormat("frame-index segment %s does not match its pointer",
                  record.segment_file.c_str()));
  }
  return FrameIndex::Deserialize(payload);
}

std::vector<std::string> FrameIndexFiles(const std::string& dir,
                                         uint64_t generation) {
  Result<PointerRecord> record = ReadPointer(dir, generation);
  if (!record.ok()) {
    return {};
  }
  return {FrameIndexPointerName(generation), record->segment_file};
}

}  // namespace index
}  // namespace vdb
