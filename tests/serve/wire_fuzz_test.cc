// Fuzz-ish corpus test for the wire protocol: every mutation of a valid
// frame — truncation at any cut point, oversized length prefixes, bad
// magic/version/verb bytes, checksum mismatches, trailing garbage, random
// bit flips — must decode to kInvalidArgument or kCorruption, never crash,
// over-read, or allocate an implausible buffer.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/wire.h"
#include "util/random.h"

namespace vdb {
namespace serve {
namespace {

// A representative corpus: every request verb plus OK and error responses,
// with string payloads exercising the variable-length paths.
std::vector<std::string> Corpus() {
  std::vector<std::string> frames;

  Request ping;
  ping.verb = Verb::kPing;
  ping.ping_token = "fuzz-token";
  frames.push_back(EncodeRequest(ping));

  Request stats;
  stats.verb = Verb::kStats;
  frames.push_back(EncodeRequest(stats));

  Request query;
  query.verb = Verb::kQuery;
  query.query.var_ba = 42.0;
  query.query.var_oa = 7.0;
  query.query.top_k = 10;
  query.query.genre_id = 2;
  frames.push_back(EncodeRequest(query));

  Request tree;
  tree.verb = Verb::kTree;
  tree.tree.video_id = 1;
  tree.tree.max_depth = 3;
  frames.push_back(EncodeRequest(tree));

  Request list;
  list.verb = Verb::kList;
  frames.push_back(EncodeRequest(list));

  Request reload;
  reload.verb = Verb::kReload;
  reload.reload_path = "/some/path.vdbcat";
  frames.push_back(EncodeRequest(reload));

  Request frame_by_signature;
  frame_by_signature.verb = Verb::kQueryFrame;
  frame_by_signature.query_frame.top_k = 9;
  frame_by_signature.query_frame.signature_rgb = std::string(39, '\x5a');
  frames.push_back(EncodeRequest(frame_by_signature));

  Request frame_by_pixels;
  frame_by_pixels.verb = Verb::kQueryFrame;
  frame_by_pixels.query_frame.width = 8;
  frame_by_pixels.query_frame.height = 6;
  frame_by_pixels.query_frame.frame_rgb = std::string(8 * 6 * 3, '\x3c');
  frames.push_back(EncodeRequest(frame_by_pixels));

  Response frame_hits;
  frame_hits.verb = Verb::kQueryFrame;
  frame_hits.query_frame.query_tokens = 10;
  frame_hits.query_frame.candidates = 42;
  frame_hits.query_frame.probed = 7;
  for (int i = 0; i < 3; ++i) {
    FrameHitWire hit;
    hit.video_id = i;
    hit.shot_index = i - 1;  // includes a -1: the wire field is signed
    hit.score = 1.0 / (i + 1);
    hit.video_name = "fuzz-clip-" + std::to_string(i);
    frame_hits.query_frame.hits.push_back(hit);
  }
  frames.push_back(EncodeResponse(frame_hits));

  Response suggestions;
  suggestions.verb = Verb::kQuery;
  for (int i = 0; i < 4; ++i) {
    SuggestionWire s;
    s.video_id = i;
    s.video_name = "clip-" + std::to_string(i);
    s.scene_label = "SN_" + std::to_string(i) + "^0";
    suggestions.query.suggestions.push_back(s);
  }
  frames.push_back(EncodeResponse(suggestions));

  Response error;
  error.verb = Verb::kError;
  error.status = Status::FailedPrecondition("server busy");
  frames.push_back(EncodeResponse(error));

  Response listing;
  listing.verb = Verb::kList;
  VideoSummary v;
  v.name = "friends";
  v.genre_ids = {1, 2, 3};
  listing.list.videos.push_back(v);
  frames.push_back(EncodeResponse(listing));

  return frames;
}

// Fully decodes `bytes` the way a receiver would: frame, then the request
// or response payload. Returns the first failure, or OK.
Status DecodeFully(const std::string& bytes) {
  Result<Frame> frame = DecodeFrame(bytes);
  if (!frame.ok()) {
    return frame.status();
  }
  if (frame->header.is_response) {
    return DecodeResponse(frame->header, frame->payload).status();
  }
  return DecodeRequest(frame->header, frame->payload).status();
}

void ExpectRejected(const std::string& bytes, const char* what) {
  Status status = DecodeFully(bytes);
  EXPECT_FALSE(status.ok()) << what;
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kCorruption)
      << what << ": " << status;
}

TEST(WireFuzzTest, CorpusDecodesClean) {
  for (const std::string& frame : Corpus()) {
    Status status = DecodeFully(frame);
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(WireFuzzTest, EveryTruncationIsRejected) {
  for (const std::string& frame : Corpus()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      ExpectRejected(frame.substr(0, cut), "truncated frame");
    }
  }
}

TEST(WireFuzzTest, TrailingBytesAreRejected) {
  for (const std::string& frame : Corpus()) {
    ExpectRejected(frame + std::string(1, '\0'), "one trailing byte");
    ExpectRejected(frame + "garbage after the frame", "trailing run");
  }
}

TEST(WireFuzzTest, BadMagicIsRejected) {
  for (const std::string& frame : Corpus()) {
    for (size_t i = 0; i < 4; ++i) {
      std::string bad = frame;
      bad[i] ^= 0x40;
      ExpectRejected(bad, "magic byte flipped");
    }
  }
}

TEST(WireFuzzTest, BadVersionIsRejected) {
  std::string frame = Corpus().front();
  frame[4] = static_cast<char>(kWireVersion + 1);
  ExpectRejected(frame, "future wire version");
  frame[4] = 0;
  ExpectRejected(frame, "zero wire version");
}

TEST(WireFuzzTest, UnknownVerbIsRejected) {
  std::string frame = Corpus().front();
  frame[5] = 0;  // verb 0 is not assigned
  ExpectRejected(frame, "verb zero");
  frame[5] = 0x7f;  // far beyond kError, response bit clear
  ExpectRejected(frame, "verb out of range");
}

TEST(WireFuzzTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // The length prefix lives at offset 6..9. Claim ~4 GiB and 33 MiB (just
  // over kMaxPayloadSize): both must fail on the header alone — the check
  // runs before any payload buffer is sized.
  std::string frame = Corpus().front();
  for (uint32_t claimed :
       {0xffffffffu, kMaxPayloadSize + 1, kMaxPayloadSize + (1u << 20)}) {
    std::string bad = frame;
    bad[6] = static_cast<char>(claimed & 0xff);
    bad[7] = static_cast<char>((claimed >> 8) & 0xff);
    bad[8] = static_cast<char>((claimed >> 16) & 0xff);
    bad[9] = static_cast<char>((claimed >> 24) & 0xff);
    Result<FrameHeader> header = DecodeFrameHeader(
        std::string_view(bad).substr(0, kFrameHeaderSize));
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireFuzzTest, PlausibleButWrongLengthIsRejected) {
  // A small-but-wrong length passes the header cap; the mismatch against
  // the actual payload must still be caught.
  for (const std::string& frame : Corpus()) {
    std::string bad = frame;
    bad[6] = static_cast<char>(bad[6] + 1);
    ExpectRejected(bad, "length off by one");
  }
}

TEST(WireFuzzTest, ChecksumMismatchIsRejected) {
  for (const std::string& frame : Corpus()) {
    std::string bad = frame;
    bad[10] ^= 0x01;  // checksum field
    ExpectRejected(bad, "checksum field flipped");
    if (frame.size() > kFrameHeaderSize) {
      std::string payload_flip = frame;
      payload_flip[frame.size() - 1] ^= 0x01;
      ExpectRejected(payload_flip, "payload byte flipped");
    }
  }
}

// Random single-bit flips anywhere in a frame: the decode may succeed (a
// flip inside e.g. a double is still a well-formed frame only if the
// checksum also matches — which a single flip can never arrange), so in
// practice every flip is rejected; either way it must never crash and any
// failure must carry a protocol error code.
class WireBitFlipTest : public testing::TestWithParam<int> {};

TEST_P(WireBitFlipTest, NeverCrashes) {
  std::vector<std::string> corpus = Corpus();
  Pcg32 rng(static_cast<uint64_t>(GetParam()) * 6271 + 11);
  for (const std::string& frame : corpus) {
    std::string mutated = frame;
    size_t pos = rng.NextBounded(static_cast<uint32_t>(mutated.size()));
    mutated[pos] ^= static_cast<char>(1 << rng.NextBounded(8));
    Status status = DecodeFully(mutated);
    if (!status.ok()) {
      EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                  status.code() == StatusCode::kCorruption)
          << status;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Flips, WireBitFlipTest, testing::Range(0, 32));

// Random garbage of assorted sizes must be rejected outright.
TEST(WireFuzzTest, RandomGarbageIsRejected) {
  Pcg32 rng(0xf00d);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.NextBounded(128), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    Status status = DecodeFully(garbage);
    // All-random bytes can never satisfy magic + checksum at once.
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kCorruption)
        << status;
  }
}

// ---------------------------------------------------------------------------
// Pipelined streams: many frames concatenated into one byte stream, pushed
// through the incremental FrameParser the way the event loop receives them.
// However the stream is chunked, every sound frame before a bad one must
// come out intact and in order, and the bad frame must poison the parser
// (one error, then a clean refusal to resynchronise) — never a crash.

// Re-encodes a parsed frame so streams can be compared frame-by-frame.
std::string Reencode(const Frame& frame) {
  return EncodeFrame(frame.header.verb, frame.header.is_response,
                     frame.payload);
}

// Feeds `stream` in chunks cut at `splits` and collects the parser's
// verdicts: the re-encoded sound frames, and whether/why it poisoned.
struct StreamOutcome {
  std::vector<std::string> frames;
  bool poisoned = false;
  Status error;
};

StreamOutcome RunParser(const std::string& stream,
                        const std::vector<size_t>& splits) {
  StreamOutcome out;
  FrameParser parser;
  size_t start = 0;
  std::vector<size_t> cuts = splits;
  cuts.push_back(stream.size());
  for (size_t cut : cuts) {
    if (cut < start || cut > stream.size()) {
      continue;
    }
    parser.Feed(std::string_view(stream).substr(start, cut - start));
    start = cut;
    for (;;) {
      Frame frame;
      Status error;
      FrameParser::Next next = parser.TryNext(&frame, &error);
      if (next == FrameParser::Next::kNeedMore) {
        break;
      }
      if (next == FrameParser::Next::kError) {
        out.poisoned = true;
        out.error = error;
        return out;
      }
      out.frames.push_back(Reencode(frame));
    }
  }
  return out;
}

TEST(PipelinedStreamFuzzTest, WholeCorpusConcatenatedRoundTrips) {
  std::vector<std::string> corpus = Corpus();
  std::string stream;
  for (const std::string& frame : corpus) {
    stream += frame;
  }
  // One big feed, and the pathological one-byte-per-feed slow client.
  std::vector<size_t> byte_splits;
  for (size_t i = 1; i < stream.size(); ++i) {
    byte_splits.push_back(i);
  }
  for (const std::vector<size_t>& splits :
       {std::vector<size_t>{}, byte_splits}) {
    StreamOutcome out = RunParser(stream, splits);
    EXPECT_FALSE(out.poisoned) << out.error;
    ASSERT_EQ(out.frames.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(out.frames[i], corpus[i]) << "frame " << i;
    }
  }
}

TEST(PipelinedStreamFuzzTest, RandomChunkingNeverChangesTheFrames) {
  std::vector<std::string> corpus = Corpus();
  std::string stream;
  for (const std::string& frame : corpus) {
    stream += frame;
  }
  Pcg32 rng(0xcafe);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<size_t> splits;
    size_t pos = 0;
    while (pos < stream.size()) {
      pos += 1 + rng.NextBounded(97);
      if (pos < stream.size()) {
        splits.push_back(pos);
      }
    }
    StreamOutcome out = RunParser(stream, splits);
    EXPECT_FALSE(out.poisoned) << out.error;
    ASSERT_EQ(out.frames.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(out.frames[i], corpus[i]);
    }
  }
}

// A truncated trailing frame after N sound ones: all N are delivered and
// the parser just waits for more bytes — truncation alone is not an error
// (the peer may still be writing).
TEST(PipelinedStreamFuzzTest, TruncatedTailDeliversEveryPriorFrame) {
  std::vector<std::string> corpus = Corpus();
  for (size_t boundary = 0; boundary < corpus.size(); ++boundary) {
    std::string stream;
    for (size_t i = 0; i < boundary; ++i) {
      stream += corpus[i];
    }
    const std::string& tail = corpus[boundary];
    for (size_t cut : {size_t{1}, tail.size() / 2, tail.size() - 1}) {
      if (cut >= tail.size()) {
        continue;
      }
      StreamOutcome out = RunParser(stream + tail.substr(0, cut), {});
      EXPECT_FALSE(out.poisoned)
          << "boundary " << boundary << " cut " << cut << ": " << out.error;
      EXPECT_EQ(out.frames.size(), boundary);
    }
  }
}

// A header-corrupting bit flip at any frame boundary: every earlier frame
// is delivered, then the parser poisons with a protocol error code, and it
// refuses to produce anything further even when fed more valid frames.
TEST(PipelinedStreamFuzzTest, CorruptFrameAtEveryBoundaryPoisonsCleanly) {
  std::vector<std::string> corpus = Corpus();
  for (size_t boundary = 0; boundary < corpus.size(); ++boundary) {
    std::string stream;
    for (size_t i = 0; i < boundary; ++i) {
      stream += corpus[i];
    }
    std::string bad = corpus[boundary];
    bad[0] ^= 0x40;  // break the magic
    stream += bad;
    for (size_t i = boundary + 1; i < corpus.size(); ++i) {
      stream += corpus[i];  // sound frames after the poison: unreachable
    }
    StreamOutcome out = RunParser(stream, {});
    EXPECT_TRUE(out.poisoned) << "boundary " << boundary;
    EXPECT_TRUE(out.error.code() == StatusCode::kInvalidArgument ||
                out.error.code() == StatusCode::kCorruption)
        << out.error;
    EXPECT_EQ(out.frames.size(), boundary);

    // Once poisoned, stays poisoned.
    FrameParser parser;
    parser.Feed(stream);
    Frame frame;
    Status error;
    for (size_t i = 0; i < boundary; ++i) {
      ASSERT_EQ(parser.TryNext(&frame, &error), FrameParser::Next::kFrame);
    }
    EXPECT_EQ(parser.TryNext(&frame, &error), FrameParser::Next::kError);
    parser.Feed(corpus[0]);
    EXPECT_EQ(parser.TryNext(&frame, &error), FrameParser::Next::kError);
    EXPECT_TRUE(parser.poisoned());
  }
}

// Checksum-corrupting flips inside a mid-stream payload: the frames before
// it survive, the stream dies at the flip.
TEST(PipelinedStreamFuzzTest, PayloadFlipMidStreamPoisonsAfterPriorFrames) {
  std::vector<std::string> corpus = Corpus();
  Pcg32 rng(0xbeef);
  for (int trial = 0; trial < 64; ++trial) {
    size_t boundary = rng.NextBounded(static_cast<uint32_t>(corpus.size()));
    std::string stream;
    for (size_t i = 0; i < boundary; ++i) {
      stream += corpus[i];
    }
    std::string bad = corpus[boundary];
    size_t pos = rng.NextBounded(static_cast<uint32_t>(bad.size()));
    bad[pos] ^= static_cast<char>(1 << rng.NextBounded(8));
    stream += bad;
    std::vector<size_t> splits;
    size_t cursor = 0;
    while (cursor < stream.size()) {
      cursor += 1 + rng.NextBounded(31);
      if (cursor < stream.size()) {
        splits.push_back(cursor);
      }
    }
    StreamOutcome out = RunParser(stream, splits);
    if (out.poisoned) {
      EXPECT_TRUE(out.error.code() == StatusCode::kInvalidArgument ||
                  out.error.code() == StatusCode::kCorruption)
          << out.error;
      EXPECT_GE(out.frames.size(), boundary);
    }
    // A flip that survives framing (it can't: the checksum covers the
    // payload and the header words cross-check) would still deliver the
    // prior frames; either way nothing crashed and order held.
    for (size_t i = 0; i < std::min(out.frames.size(), boundary); ++i) {
      EXPECT_EQ(out.frames[i], corpus[i]);
    }
  }
}

// Pure garbage between two valid frames: the first frame arrives, the
// garbage poisons, the second frame is never misparsed out of the noise.
TEST(PipelinedStreamFuzzTest, GarbageBetweenFramesPoisons) {
  std::vector<std::string> corpus = Corpus();
  Pcg32 rng(0x5eed);
  for (int trial = 0; trial < 32; ++trial) {
    std::string garbage(kFrameHeaderSize + rng.NextBounded(64), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    StreamOutcome out = RunParser(corpus[0] + garbage + corpus[1], {});
    ASSERT_GE(out.frames.size(), size_t{1});
    EXPECT_EQ(out.frames[0], corpus[0]);
    // Random bytes can't satisfy magic + checksum; the stream must die.
    EXPECT_TRUE(out.poisoned);
  }
}

}  // namespace
}  // namespace serve
}  // namespace vdb
