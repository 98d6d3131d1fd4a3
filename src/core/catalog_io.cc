#include "core/catalog_io.h"

#include <string_view>

#include "util/binary_io.h"
#include "util/string_util.h"

namespace vdb {
namespace {

constexpr uint32_t kMaxFrames = 1 << 24;
constexpr uint32_t kMaxShots = 1 << 20;
constexpr uint32_t kMaxNodes = 1 << 21;

// A signature line is written as its packed r, g, b bytes in one append.
static_assert(sizeof(PixelRGB) == 3, "PixelRGB must be three packed bytes");

void PutPixel(BinaryWriter* w, const PixelRGB& p) {
  w->PutU8(p.r);
  w->PutU8(p.g);
  w->PutU8(p.b);
}

Result<PixelRGB> GetPixel(BinaryReader* r, const char* what) {
  VDB_ASSIGN_OR_RETURN(uint8_t red, r->GetU8(what));
  VDB_ASSIGN_OR_RETURN(uint8_t green, r->GetU8(what));
  VDB_ASSIGN_OR_RETURN(uint8_t blue, r->GetU8(what));
  return PixelRGB(red, green, blue);
}

}  // namespace

void SerializeCatalogEntry(const CatalogEntry& entry, BinaryWriter* w) {
  w->PutString(entry.name);
  w->PutU32(static_cast<uint32_t>(entry.classification.genre_ids.size()));
  for (int g : entry.classification.genre_ids) {
    w->PutI32(g);
  }
  w->PutI32(entry.classification.form_id);
  w->PutDouble(entry.fps);
  w->PutI32(entry.frame_count);
  w->PutI32(entry.signatures.geometry.frame_width);
  w->PutI32(entry.signatures.geometry.frame_height);

  w->PutU32(static_cast<uint32_t>(entry.signatures.frames.size()));
  for (const FrameSignature& fs : entry.signatures.frames) {
    PutPixel(w, fs.sign_ba);
    PutPixel(w, fs.sign_oa);
    w->PutU32(static_cast<uint32_t>(fs.signature_ba.size()));
    w->PutBytes(std::string_view(
        reinterpret_cast<const char*>(fs.signature_ba.data()),
        fs.signature_ba.size() * sizeof(PixelRGB)));
  }

  w->PutU32(static_cast<uint32_t>(entry.shots.size()));
  for (const Shot& shot : entry.shots) {
    w->PutI32(shot.start_frame);
    w->PutI32(shot.end_frame);
  }
  for (const ShotFeatures& f : entry.features) {
    w->PutDouble(f.var_ba);
    w->PutDouble(f.var_oa);
  }

  w->PutU64(static_cast<uint64_t>(entry.sbd_stats.stage1_same));
  w->PutU64(static_cast<uint64_t>(entry.sbd_stats.stage2_same));
  w->PutU64(static_cast<uint64_t>(entry.sbd_stats.stage3_same));
  w->PutU64(static_cast<uint64_t>(entry.sbd_stats.stage3_boundary));

  const SceneTree& tree = entry.scene_tree;
  w->PutI32(tree.root());
  w->PutU32(static_cast<uint32_t>(tree.node_count()));
  for (const SceneNode& node : tree.nodes()) {
    w->PutI32(node.parent);
    w->PutI32(node.level);
    w->PutI32(node.shot_index);
    w->PutI32(node.representative_frame);
    w->PutU32(static_cast<uint32_t>(node.children.size()));
    for (int child : node.children) {
      w->PutI32(child);
    }
  }
}

Result<CatalogEntry> DeserializeCatalogEntry(BinaryReader* r) {
  CatalogEntry entry;
  VDB_ASSIGN_OR_RETURN(entry.name, r->GetString("video name", 1 << 16));
  VDB_ASSIGN_OR_RETURN(uint32_t genre_count, r->GetU32("genre count"));
  if (genre_count > 1024) {
    return Status::Corruption(
        StrFormat("implausible genre count %u", genre_count));
  }
  entry.classification.genre_ids.resize(genre_count);
  for (uint32_t g = 0; g < genre_count; ++g) {
    VDB_ASSIGN_OR_RETURN(entry.classification.genre_ids[g],
                         r->GetI32("genre id"));
  }
  VDB_ASSIGN_OR_RETURN(entry.classification.form_id, r->GetI32("form id"));
  VDB_ASSIGN_OR_RETURN(entry.fps, r->GetDouble("fps"));
  VDB_ASSIGN_OR_RETURN(entry.frame_count, r->GetI32("frame count"));
  VDB_ASSIGN_OR_RETURN(int width, r->GetI32("frame width"));
  VDB_ASSIGN_OR_RETURN(int height, r->GetI32("frame height"));
  VDB_ASSIGN_OR_RETURN(entry.signatures.geometry,
                       ComputeAreaGeometry(width, height));

  VDB_ASSIGN_OR_RETURN(uint32_t sign_count, r->GetU32("sign count"));
  if (sign_count > kMaxFrames ||
      static_cast<int>(sign_count) != entry.frame_count) {
    return Status::Corruption(
        StrFormat("sign count %u does not match %d frames", sign_count,
                  entry.frame_count));
  }
  entry.signatures.frames.resize(sign_count);
  for (FrameSignature& fs : entry.signatures.frames) {
    VDB_ASSIGN_OR_RETURN(fs.sign_ba, GetPixel(r, "sign BA"));
    VDB_ASSIGN_OR_RETURN(fs.sign_oa, GetPixel(r, "sign OA"));
    VDB_ASSIGN_OR_RETURN(uint32_t line_length, r->GetU32("signature length"));
    if (line_length > (1u << 12)) {
      return Status::Corruption(
          StrFormat("implausible signature length %u", line_length));
    }
    fs.signature_ba.resize(line_length);
    for (PixelRGB& pixel : fs.signature_ba) {
      VDB_ASSIGN_OR_RETURN(pixel, GetPixel(r, "signature pixel"));
    }
  }

  VDB_ASSIGN_OR_RETURN(uint32_t shot_count, r->GetU32("shot count"));
  if (shot_count > kMaxShots) {
    return Status::Corruption(
        StrFormat("implausible shot count %u", shot_count));
  }
  entry.shots.resize(shot_count);
  for (Shot& shot : entry.shots) {
    VDB_ASSIGN_OR_RETURN(shot.start_frame, r->GetI32("shot start"));
    VDB_ASSIGN_OR_RETURN(shot.end_frame, r->GetI32("shot end"));
    if (shot.start_frame < 0 || shot.end_frame >= entry.frame_count ||
        shot.start_frame > shot.end_frame) {
      return Status::Corruption(
          StrFormat("shot [%d,%d] outside video of %d frames",
                    shot.start_frame, shot.end_frame, entry.frame_count));
    }
  }
  entry.features.resize(shot_count);
  for (ShotFeatures& f : entry.features) {
    VDB_ASSIGN_OR_RETURN(f.var_ba, r->GetDouble("var BA"));
    VDB_ASSIGN_OR_RETURN(f.var_oa, r->GetDouble("var OA"));
  }

  VDB_ASSIGN_OR_RETURN(uint64_t s1, r->GetU64("stage1"));
  VDB_ASSIGN_OR_RETURN(uint64_t s2, r->GetU64("stage2"));
  VDB_ASSIGN_OR_RETURN(uint64_t s3, r->GetU64("stage3 same"));
  VDB_ASSIGN_OR_RETURN(uint64_t s3b, r->GetU64("stage3 boundary"));
  entry.sbd_stats.stage1_same = static_cast<long>(s1);
  entry.sbd_stats.stage2_same = static_cast<long>(s2);
  entry.sbd_stats.stage3_same = static_cast<long>(s3);
  entry.sbd_stats.stage3_boundary = static_cast<long>(s3b);

  VDB_ASSIGN_OR_RETURN(int root, r->GetI32("tree root"));
  VDB_ASSIGN_OR_RETURN(uint32_t node_count, r->GetU32("node count"));
  if (node_count > kMaxNodes) {
    return Status::Corruption(
        StrFormat("implausible node count %u", node_count));
  }
  std::vector<SceneNode> nodes(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    SceneNode& node = nodes[i];
    node.id = static_cast<int>(i);
    VDB_ASSIGN_OR_RETURN(node.parent, r->GetI32("node parent"));
    VDB_ASSIGN_OR_RETURN(node.level, r->GetI32("node level"));
    VDB_ASSIGN_OR_RETURN(node.shot_index, r->GetI32("node shot"));
    VDB_ASSIGN_OR_RETURN(node.representative_frame,
                         r->GetI32("node rep frame"));
    VDB_ASSIGN_OR_RETURN(uint32_t child_count, r->GetU32("child count"));
    if (child_count > node_count) {
      return Status::Corruption("node child list larger than tree");
    }
    node.children.resize(child_count);
    for (uint32_t c = 0; c < child_count; ++c) {
      VDB_ASSIGN_OR_RETURN(node.children[c], r->GetI32("child id"));
    }
  }
  VDB_ASSIGN_OR_RETURN(
      entry.scene_tree,
      SceneTree::FromParts(std::move(nodes), root,
                           static_cast<int>(shot_count)));
  return entry;
}

}  // namespace vdb
