#include "mix.h"

#include <functional>

#include "core/extractor.h"
#include "core/geometry.h"

namespace vdbperf {

vdb::serve::Request QueryFrameRequest(const vdb::Frame& frame, int top_k) {
  vdb::serve::Request request;
  request.verb = vdb::serve::Verb::kQueryFrame;
  vdb::serve::QueryFrameRequest& q = request.query_frame;
  q.top_k = top_k;
  q.width = frame.width();
  q.height = frame.height();
  q.frame_rgb.resize(frame.pixel_count() * 3);
  for (size_t i = 0; i < frame.pixel_count(); ++i) {
    q.frame_rgb[3 * i] = static_cast<char>(frame.pixels()[i].r);
    q.frame_rgb[3 * i + 1] = static_cast<char>(frame.pixels()[i].g);
    q.frame_rgb[3 * i + 2] = static_cast<char>(frame.pixels()[i].b);
  }
  return request;
}

vdb::Frame RequestFrame(const vdb::serve::QueryFrameRequest& request) {
  vdb::Frame frame(request.width, request.height);
  for (size_t i = 0; i < frame.pixel_count(); ++i) {
    frame.pixels()[i] = vdb::PixelRGB{
        static_cast<uint8_t>(request.frame_rgb[3 * i]),
        static_cast<uint8_t>(request.frame_rgb[3 * i + 1]),
        static_cast<uint8_t>(request.frame_rgb[3 * i + 2])};
  }
  return frame;
}

std::vector<MixRequest> MakeMix(const std::vector<BaseClip>& clips,
                                const std::vector<DerivedSpec>& specs,
                                const vdb::VideoDatabase& db, int videos,
                                int count, std::mt19937_64* rng) {
  std::vector<MixRequest> mix;
  mix.reserve(static_cast<size_t>(count));
  while (static_cast<int>(mix.size()) < count) {
    int video = static_cast<int>((*rng)() % static_cast<uint64_t>(videos));
    const vdb::CatalogEntry* entry = db.GetEntry(video).value();
    int roll = static_cast<int>((*rng)() % 10);
    MixRequest m;
    if (roll < 6) {
      if (entry->features.empty()) continue;
      const vdb::ShotFeatures& f =
          entry->features[(*rng)() % entry->features.size()];
      m.kind = kQuery;
      m.request.verb = vdb::serve::Verb::kQuery;
      m.request.query.var_ba = f.var_ba;
      m.request.query.var_oa = f.var_oa;
      m.request.query.top_k = kTopK;
    } else if (roll < 9) {
      const DerivedSpec& spec = specs[static_cast<size_t>(video)];
      m.kind = kQueryFrame;
      int index = static_cast<int>((*rng)() % static_cast<uint64_t>(spec.frames));
      m.request = QueryFrameRequest(DeriveFrame(clips, spec, index), kTopK);
    } else {
      m.kind = kTree;
      m.request.verb = vdb::serve::Verb::kTree;
      m.request.tree.video_id = video;
    }
    mix.push_back(std::move(m));
  }
  return mix;
}

namespace {

uint64_t PingsOn(const vdb::serve::ServerMetrics& metrics, int worker) {
  for (const auto& row : metrics.ShardSnapshot(worker)) {
    if (row.verb == vdb::serve::VerbName(vdb::serve::Verb::kPing)) {
      return row.count;
    }
  }
  return 0;
}

}  // namespace

vdb::Result<std::vector<vdb::serve::Client>> ConnectInTurn(
    int port, const vdb::serve::ServerMetrics& metrics, int count,
    std::string* placement) {
  std::vector<vdb::serve::Client> clients;
  placement->clear();
  for (int c = 0; c < count; ++c) {
    std::vector<uint64_t> before;
    for (int w = 0; w < metrics.shards(); ++w) {
      before.push_back(PingsOn(metrics, w));
    }
    auto client = vdb::serve::Client::Connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    auto pong = client->Ping("placement");
    if (!pong.ok()) return pong.status();
    if (c > 0) *placement += ',';
    for (int w = 0; w < metrics.shards(); ++w) {
      if (PingsOn(metrics, w) != before[static_cast<size_t>(w)]) {
        *placement += std::to_string(w);
      }
    }
    clients.push_back(std::move(*client));
  }
  return clients;
}

std::string AnswerBytes(vdb::serve::Response response) {
  response.shards_ok = 0;
  response.shards_total = 0;
  return vdb::serve::EncodeResponse(response);
}

void CorruptAnswer(vdb::serve::Response* response) {
  if (!response->query.suggestions.empty()) {
    response->query.suggestions[0].video_id += 1;
    response->query.suggestions[0].distance += 1.0;
  } else if (!response->query_frame.hits.empty()) {
    response->query_frame.hits[0].video_id += 1;
    response->query_frame.hits[0].score = -1.0;
  } else {
    response->tree.root += 1;
  }
}

namespace {

vdb::serve::Response DirectQuery(const vdb::VideoDatabase& db,
                                 const vdb::serve::QueryRequest& request) {
  vdb::serve::Response response;
  response.verb = vdb::serve::Verb::kQuery;
  vdb::VarianceQuery query;
  query.var_ba = request.var_ba;
  query.var_oa = request.var_oa;
  query.alpha = request.alpha;
  query.beta = request.beta;
  auto found = db.Search(query, request.top_k);
  if (!found.ok()) {
    response.status = found.status();
    return response;
  }
  for (const vdb::BrowsingSuggestion& s : *found) {
    vdb::serve::SuggestionWire wire;
    wire.video_id = s.match.entry.video_id;
    wire.shot_index = s.match.entry.shot_index;
    wire.var_ba = s.match.entry.var_ba;
    wire.var_oa = s.match.entry.var_oa;
    wire.distance = s.match.distance;
    wire.video_name = s.video_name;
    wire.scene_node = s.scene_node;
    wire.scene_label = s.scene_label;
    wire.representative_frame = s.representative_frame;
    response.query.suggestions.push_back(std::move(wire));
  }
  return response;
}

vdb::serve::Response DirectQueryFrame(
    const vdb::VideoDatabase& db, const vdb::index::FrameIndex& frame_index,
    const vdb::serve::QueryFrameRequest& request) {
  vdb::serve::Response response;
  response.verb = vdb::serve::Verb::kQueryFrame;
  vdb::Frame frame = RequestFrame(request);
  auto geometry = vdb::ComputeAreaGeometry(request.width, request.height);
  if (!geometry.ok()) {
    response.status = geometry.status();
    return response;
  }
  auto signature = vdb::ComputeFrameSignature(frame, *geometry);
  if (!signature.ok()) {
    response.status = signature.status();
    return response;
  }
  vdb::index::FrameQueryStats stats;
  std::vector<vdb::index::FrameHit> hits = frame_index.QuerySignature(
      signature->signature_ba, request.top_k, &stats);
  response.query_frame.query_tokens = stats.query_tokens;
  response.query_frame.candidates = stats.candidates;
  response.query_frame.probed = stats.probed;
  for (const vdb::index::FrameHit& hit : hits) {
    vdb::serve::FrameHitWire wire;
    wire.video_id = hit.video_id;
    wire.shot_index = hit.shot_index;
    wire.score = hit.score;
    auto entry = db.GetEntry(hit.video_id);
    if (entry.ok()) wire.video_name = (*entry)->name;
    response.query_frame.hits.push_back(std::move(wire));
  }
  return response;
}

vdb::serve::Response DirectTree(const vdb::VideoDatabase& db,
                                const vdb::serve::TreeRequest& request) {
  vdb::serve::Response response;
  response.verb = vdb::serve::Verb::kTree;
  auto entry = db.GetEntry(request.video_id);
  if (!entry.ok()) {
    response.status = entry.status();
    return response;
  }
  const vdb::SceneTree& tree = (*entry)->scene_tree;
  response.tree.root = tree.root();
  response.tree.shot_count = tree.shot_count();
  // Whole tree, pre-order from the root, children in stored order.
  std::function<void(int)> visit = [&](int id) {
    const vdb::SceneNode& node = tree.node(id);
    vdb::serve::TreeNodeWire wire;
    wire.id = node.id;
    wire.parent = node.parent;
    wire.level = node.level;
    wire.shot_index = node.shot_index;
    wire.representative_frame = node.representative_frame;
    wire.label = node.Label();
    wire.children = node.children;
    response.tree.nodes.push_back(std::move(wire));
    for (int child : node.children) visit(child);
  };
  visit(tree.root());
  return response;
}

}  // namespace

vdb::serve::Response DirectAnswer(const vdb::VideoDatabase& db,
                                  const vdb::index::FrameIndex& frame_index,
                                  const vdb::serve::Request& request) {
  switch (request.verb) {
    case vdb::serve::Verb::kQuery:
      return DirectQuery(db, request.query);
    case vdb::serve::Verb::kQueryFrame:
      return DirectQueryFrame(db, frame_index, request.query_frame);
    case vdb::serve::Verb::kTree:
      return DirectTree(db, request.tree);
    default:
      break;
  }
  vdb::serve::Response response;
  response.status = vdb::Status::InvalidArgument("verb outside the mix");
  return response;
}

}  // namespace vdbperf
