#ifndef VDB_STREAM_FRAME_SOURCE_H_
#define VDB_STREAM_FRAME_SOURCE_H_

#include <memory>
#include <string>

#include "util/result.h"
#include "video/video.h"

namespace vdb {
namespace stream {

// Where the streaming ingest pipeline pulls frames from: a .vdb file read
// one frame at a time, an in-memory Video, or (in tests) anything slow or
// failure-injecting. The pipeline's steps pull it one thread at a time, in
// frame order; SeekToFrame exists so Pipeline::Resume can skip the
// frames a previous run already analysed.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  virtual const std::string& name() const = 0;
  virtual double fps() const = 0;
  virtual int width() const = 0;
  virtual int height() const = 0;
  virtual int frame_count() const = 0;

  virtual bool AtEnd() const = 0;

  // Decodes and returns the next frame.
  virtual Result<Frame> Next() = 0;

  // Positions the source so the next Next() returns `frame_index`.
  virtual Status SeekToFrame(int frame_index) = 0;
};

// A source over a .vdb file (streaming decode: one frame resident at a
// time, via VideoFileReader).
Result<std::unique_ptr<FrameSource>> OpenVideoFileSource(
    const std::string& path);

// A source over an in-memory Video (used by vdbstream's preset mode and
// the tests; frames are copied out one at a time).
std::unique_ptr<FrameSource> MakeVideoFrameSource(Video video);

}  // namespace stream
}  // namespace vdb

#endif  // VDB_STREAM_FRAME_SOURCE_H_
