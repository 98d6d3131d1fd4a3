#include "serve/wire.h"

#include <gtest/gtest.h>

namespace vdb {
namespace serve {
namespace {

// Round-trips one request through a full frame (encode, header decode,
// payload validation, payload decode) and returns the decoded copy.
Request RoundTrip(const Request& request) {
  std::string bytes = EncodeRequest(request);
  Result<Frame> frame = DecodeFrame(bytes);
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->header.is_response);
  EXPECT_EQ(frame->header.verb, request.verb);
  Result<Request> decoded = DecodeRequest(frame->header, frame->payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return *decoded;
}

Response RoundTrip(const Response& response) {
  std::string bytes = EncodeResponse(response);
  Result<Frame> frame = DecodeFrame(bytes);
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_TRUE(frame->header.is_response);
  EXPECT_EQ(frame->header.verb, response.verb);
  Result<Response> decoded = DecodeResponse(frame->header, frame->payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return *decoded;
}

TEST(WireFrameTest, HeaderFieldsSurvive) {
  std::string bytes = EncodeFrame(Verb::kQuery, /*is_response=*/true, "abc");
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 3);
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(bytes).substr(0, kFrameHeaderSize));
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->verb, Verb::kQuery);
  EXPECT_TRUE(header->is_response);
  EXPECT_EQ(header->payload_size, 3u);
  EXPECT_TRUE(
      ValidatePayload(*header, std::string_view(bytes).substr(
                                   kFrameHeaderSize))
          .ok());
}

TEST(WireFrameTest, EmptyPayloadFrames) {
  std::string bytes = EncodeFrame(Verb::kList, /*is_response=*/false, "");
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);
  Result<Frame> frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->header.payload_size, 0u);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireFrameTest, VerbNamesAreStable) {
  EXPECT_EQ(VerbName(Verb::kPing), "ping");
  EXPECT_EQ(VerbName(Verb::kStats), "stats");
  EXPECT_EQ(VerbName(Verb::kQuery), "query");
  EXPECT_EQ(VerbName(Verb::kTree), "tree");
  EXPECT_EQ(VerbName(Verb::kList), "list");
  EXPECT_EQ(VerbName(Verb::kReload), "reload");
  EXPECT_EQ(VerbName(Verb::kError), "error");
}

TEST(WireRequestTest, PingRoundTrips) {
  Request request;
  request.verb = Verb::kPing;
  request.ping_token = "hello, wire";
  Request decoded = RoundTrip(request);
  EXPECT_EQ(decoded.ping_token, "hello, wire");
}

TEST(WireRequestTest, EmptyBodiedVerbsRoundTrip) {
  for (Verb verb : {Verb::kStats, Verb::kList}) {
    Request request;
    request.verb = verb;
    Request decoded = RoundTrip(request);
    EXPECT_EQ(decoded.verb, verb);
  }
}

TEST(WireRequestTest, QueryRoundTripsExactly) {
  Request request;
  request.verb = Verb::kQuery;
  request.query.var_ba = 123.456;
  request.query.var_oa = 0.001;
  request.query.alpha = 2.5;
  request.query.beta = 0.25;
  request.query.top_k = 17;
  request.query.genre_id = 3;
  request.query.form_id = -1;
  request.query.exact_band = true;
  Request decoded = RoundTrip(request);
  EXPECT_DOUBLE_EQ(decoded.query.var_ba, 123.456);
  EXPECT_DOUBLE_EQ(decoded.query.var_oa, 0.001);
  EXPECT_DOUBLE_EQ(decoded.query.alpha, 2.5);
  EXPECT_DOUBLE_EQ(decoded.query.beta, 0.25);
  EXPECT_EQ(decoded.query.top_k, 17);
  EXPECT_EQ(decoded.query.genre_id, 3);
  EXPECT_EQ(decoded.query.form_id, -1);
  EXPECT_TRUE(decoded.query.exact_band);
}

TEST(WireRequestTest, TreeAndReloadRoundTrip) {
  Request tree;
  tree.verb = Verb::kTree;
  tree.tree.video_id = 4;
  tree.tree.node_id = 9;
  tree.tree.max_depth = 2;
  Request decoded = RoundTrip(tree);
  EXPECT_EQ(decoded.tree.video_id, 4);
  EXPECT_EQ(decoded.tree.node_id, 9);
  EXPECT_EQ(decoded.tree.max_depth, 2);

  Request reload;
  reload.verb = Verb::kReload;
  reload.reload_path = "/tmp/other.vdbcat";
  EXPECT_EQ(RoundTrip(reload).reload_path, "/tmp/other.vdbcat");
}

TEST(WireRequestTest, ErrorVerbIsNotARequest) {
  std::string bytes = EncodeFrame(Verb::kError, /*is_response=*/false, "");
  Result<Frame> frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok());
  Result<Request> decoded = DecodeRequest(frame->header, frame->payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, ResponseFrameRejectedAsRequest) {
  Response response;
  response.verb = Verb::kPing;
  std::string bytes = EncodeResponse(response);
  Result<Frame> frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(DecodeRequest(frame->header, frame->payload).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireResponseTest, PingEchoRoundTrips) {
  Response response;
  response.verb = Verb::kPing;
  response.ping_token = "echo";
  EXPECT_EQ(RoundTrip(response).ping_token, "echo");
}

TEST(WireResponseTest, ErrorStatusSkipsBody) {
  Response response;
  response.verb = Verb::kQuery;
  response.status = Status::NotFound("no such video");
  // A body set alongside a non-OK status must not leak onto the wire.
  SuggestionWire ignored;
  ignored.video_name = "should never be encoded";
  response.query.suggestions.push_back(ignored);

  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status.message(), "no such video");
  EXPECT_TRUE(decoded.query.suggestions.empty());
}

TEST(WireResponseTest, QuerySuggestionsRoundTripExactly) {
  Response response;
  response.verb = Verb::kQuery;
  for (int i = 0; i < 3; ++i) {
    SuggestionWire s;
    s.video_id = i;
    s.shot_index = 10 + i;
    s.var_ba = 1.5 * i;
    s.var_oa = 0.5 * i;
    s.distance = 0.125 * i;
    s.video_name = "video-" + std::to_string(i);
    s.scene_node = 20 + i;
    s.scene_label = "SN_" + std::to_string(i) + "^1";
    s.representative_frame = 100 + i;
    response.query.suggestions.push_back(s);
  }
  Response decoded = RoundTrip(response);
  ASSERT_EQ(decoded.query.suggestions.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const SuggestionWire& s =
        decoded.query.suggestions[static_cast<size_t>(i)];
    EXPECT_EQ(s.video_id, i);
    EXPECT_EQ(s.shot_index, 10 + i);
    EXPECT_DOUBLE_EQ(s.var_ba, 1.5 * i);
    EXPECT_DOUBLE_EQ(s.var_oa, 0.5 * i);
    EXPECT_DOUBLE_EQ(s.distance, 0.125 * i);
    EXPECT_EQ(s.video_name, "video-" + std::to_string(i));
    EXPECT_EQ(s.scene_node, 20 + i);
    EXPECT_EQ(s.scene_label, "SN_" + std::to_string(i) + "^1");
    EXPECT_EQ(s.representative_frame, 100 + i);
  }
  // Deterministic encoding: the same response encodes to the same bytes.
  EXPECT_EQ(EncodeResponse(response), EncodeResponse(decoded));
}

TEST(WireResponseTest, BandCountsAndHealthRoundTrip) {
  Response response;
  response.verb = Verb::kQuery;
  response.shards_ok = 3;
  response.shards_total = 4;
  response.query.in_band = 12345;
  response.query.eligible = 99999;
  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.shards_ok, 3u);
  EXPECT_EQ(decoded.shards_total, 4u);
  EXPECT_EQ(decoded.query.in_band, 12345u);
  EXPECT_EQ(decoded.query.eligible, 99999u);
}

TEST(WireResponseTest, TreeNodesRoundTrip) {
  Response response;
  response.verb = Verb::kTree;
  response.tree.root = 4;
  response.tree.shot_count = 3;
  TreeNodeWire parent;
  parent.id = 4;
  parent.parent = -1;
  parent.level = 1;
  parent.shot_index = 0;
  parent.representative_frame = 12;
  parent.label = "SN_0^1";
  parent.children = {0, 1, 2};
  TreeNodeWire leaf;
  leaf.id = 1;
  leaf.parent = 4;
  leaf.level = 0;
  leaf.shot_index = 1;
  leaf.representative_frame = 40;
  leaf.label = "SN_1^0";
  response.tree.nodes = {parent, leaf};

  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.tree.root, 4);
  EXPECT_EQ(decoded.tree.shot_count, 3);
  ASSERT_EQ(decoded.tree.nodes.size(), 2u);
  EXPECT_EQ(decoded.tree.nodes[0].children, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(decoded.tree.nodes[0].label, "SN_0^1");
  EXPECT_EQ(decoded.tree.nodes[1].parent, 4);
  EXPECT_TRUE(decoded.tree.nodes[1].children.empty());
}

TEST(WireResponseTest, ListSummariesRoundTrip) {
  Response response;
  response.verb = Verb::kList;
  VideoSummary v;
  v.video_id = 7;
  v.name = "friends";
  v.frame_count = 321;
  v.fps = 29.97;
  v.shot_count = 11;
  v.node_count = 17;
  v.genre_ids = {2, 5};
  v.form_id = 1;
  response.list.videos.push_back(v);

  Response decoded = RoundTrip(response);
  ASSERT_EQ(decoded.list.videos.size(), 1u);
  const VideoSummary& d = decoded.list.videos[0];
  EXPECT_EQ(d.video_id, 7);
  EXPECT_EQ(d.name, "friends");
  EXPECT_EQ(d.frame_count, 321);
  EXPECT_DOUBLE_EQ(d.fps, 29.97);
  EXPECT_EQ(d.shot_count, 11);
  EXPECT_EQ(d.node_count, 17);
  EXPECT_EQ(d.genre_ids, (std::vector<int>{2, 5}));
  EXPECT_EQ(d.form_id, 1);
}

TEST(WireResponseTest, StatsRoundTrip) {
  Response response;
  response.verb = Verb::kStats;
  response.stats.total_connections = 100;
  response.stats.active_connections = 3;
  response.stats.rejected_busy = 7;
  response.stats.bad_frames = 2;
  response.stats.reloads_ok = 4;
  response.stats.reload_failures = 1;
  response.stats.store_generation = 12;
  response.stats.videos = 5;
  response.stats.indexed_shots = 250;
  response.stats.shard_id = 2;
  response.stats.shard_count = 4;
  VerbStats vs;
  vs.verb = "query";
  vs.count = 90;
  vs.errors = 1;
  vs.p50_us = 10.0;
  vs.p95_us = 40.0;
  vs.p99_us = 80.0;
  vs.max_us = 200.0;
  response.stats.verbs.push_back(vs);

  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.stats.total_connections, 100u);
  EXPECT_EQ(decoded.stats.active_connections, 3u);
  EXPECT_EQ(decoded.stats.rejected_busy, 7u);
  EXPECT_EQ(decoded.stats.bad_frames, 2u);
  EXPECT_EQ(decoded.stats.reloads_ok, 4u);
  EXPECT_EQ(decoded.stats.reload_failures, 1u);
  EXPECT_EQ(decoded.stats.store_generation, 12u);
  EXPECT_EQ(decoded.stats.videos, 5);
  EXPECT_EQ(decoded.stats.indexed_shots, 250);
  EXPECT_EQ(decoded.stats.shard_id, 2);
  EXPECT_EQ(decoded.stats.shard_count, 4);
  ASSERT_EQ(decoded.stats.verbs.size(), 1u);
  EXPECT_EQ(decoded.stats.verbs[0].verb, "query");
  EXPECT_EQ(decoded.stats.verbs[0].count, 90u);
  EXPECT_DOUBLE_EQ(decoded.stats.verbs[0].p99_us, 80.0);
}

TEST(WireResponseTest, ReloadRoundTrip) {
  Response response;
  response.verb = Verb::kReload;
  response.reload.videos = 9;
  response.reload.indexed_shots = 512;
  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.reload.videos, 9);
  EXPECT_EQ(decoded.reload.indexed_shots, 512);
}

TEST(WireRequestTest, QueryFrameBySignatureRoundTripsExactly) {
  Request request;
  request.verb = Verb::kQueryFrame;
  request.query_frame.top_k = 7;
  request.query_frame.signature_rgb = std::string("\x01\x20\x40\x7f\xff\x00"
                                                  "\x10\x30\x50\x70\x90\xb0",
                                                  12);  // 4 pixels
  Request decoded = RoundTrip(request);
  EXPECT_EQ(decoded.query_frame.top_k, 7);
  EXPECT_EQ(decoded.query_frame.signature_rgb,
            request.query_frame.signature_rgb);
  EXPECT_TRUE(decoded.query_frame.has_signature());
  EXPECT_FALSE(decoded.query_frame.has_frame());
}

TEST(WireRequestTest, QueryFrameByRawFrameRoundTripsExactly) {
  Request request;
  request.verb = Verb::kQueryFrame;
  request.query_frame.top_k = 3;
  request.query_frame.width = 4;
  request.query_frame.height = 2;
  request.query_frame.frame_rgb = std::string(4 * 2 * 3, '\x55');
  Request decoded = RoundTrip(request);
  EXPECT_EQ(decoded.query_frame.width, 4);
  EXPECT_EQ(decoded.query_frame.height, 2);
  EXPECT_EQ(decoded.query_frame.frame_rgb, request.query_frame.frame_rgb);
  EXPECT_TRUE(decoded.query_frame.has_frame());
  EXPECT_FALSE(decoded.query_frame.has_signature());
}

TEST(WireRequestTest, QueryFrameTravelsAsVersion3) {
  // QUERYFRAME is the first v3 verb: its frames must carry version 3 while
  // every v2-era verb keeps stamping 2, so old servers keep accepting them.
  EXPECT_EQ(VerbWireVersion(Verb::kQueryFrame), 3);
  for (Verb verb : {Verb::kPing, Verb::kStats, Verb::kQuery, Verb::kTree,
                    Verb::kList, Verb::kReload, Verb::kError}) {
    EXPECT_EQ(VerbWireVersion(verb), 2) << VerbName(verb);
  }
  Request request;
  request.verb = Verb::kQueryFrame;
  request.query_frame.signature_rgb = std::string(12, '\x42');
  std::string bytes = EncodeRequest(request);
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 3);
  Result<Frame> frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->header.version, 3);
}

TEST(WireRequestTest, QueryFrameInAVersion2FrameIsRejected) {
  // A v3 verb downgraded into a v2 frame is the old-server view of a new
  // client: the decode must name the version mismatch (the client's typed
  // downgrade guard keys off this message).
  Request request;
  request.verb = Verb::kQueryFrame;
  request.query_frame.signature_rgb = std::string(12, '\x42');
  std::string bytes = EncodeRequest(request);
  bytes[4] = 2;  // forge the version byte; checksum covers payload only
  Status status = DecodeFrame(bytes).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("requires wire version"), std::string::npos)
      << status;

  // The other direction — a v3 frame at a v2-era peer — is the downgrade
  // case: version 3 is simply out of the old peer's accepted range, and the
  // "unsupported wire version" wording is what client.cc's typed
  // kUnimplemented guard keys off.
  bytes[4] = static_cast<char>(kWireVersion + 1);  // stand-in future version
  Status future = DecodeFrame(bytes).status();
  EXPECT_EQ(future.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(future.message().find("unsupported wire version"),
            std::string::npos)
      << future;
}

TEST(WireResponseTest, QueryFrameHitsRoundTripExactly) {
  Response response;
  response.verb = Verb::kQueryFrame;
  response.shards_ok = 3;
  response.shards_total = 4;
  response.query_frame.query_tokens = 11;
  response.query_frame.candidates = 120;
  response.query_frame.probed = 17;
  for (int i = 0; i < 3; ++i) {
    FrameHitWire hit;
    hit.video_id = 10 + i;
    hit.shot_index = i == 2 ? -1 : i;  // the wire field is signed
    hit.score = 1.0 - 0.25 * i;
    hit.video_name = "clip-" + std::to_string(i);
    response.query_frame.hits.push_back(hit);
  }
  Response decoded = RoundTrip(response);
  EXPECT_EQ(decoded.shards_ok, 3u);
  EXPECT_EQ(decoded.shards_total, 4u);
  EXPECT_EQ(decoded.query_frame.query_tokens, 11u);
  EXPECT_EQ(decoded.query_frame.candidates, 120u);
  EXPECT_EQ(decoded.query_frame.probed, 17u);
  ASSERT_EQ(decoded.query_frame.hits.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.query_frame.hits[i].video_id,
              response.query_frame.hits[i].video_id);
    EXPECT_EQ(decoded.query_frame.hits[i].shot_index,
              response.query_frame.hits[i].shot_index);
    EXPECT_DOUBLE_EQ(decoded.query_frame.hits[i].score,
                     response.query_frame.hits[i].score);
    EXPECT_EQ(decoded.query_frame.hits[i].video_name,
              response.query_frame.hits[i].video_name);
  }
}

TEST(WireResponseTest, RequestFrameRejectedAsResponse) {
  Request request;
  request.verb = Verb::kPing;
  std::string bytes = EncodeRequest(request);
  Result<Frame> frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(DecodeResponse(frame->header, frame->payload).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace vdb
