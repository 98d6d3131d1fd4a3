#include "corpus.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "common.h"
#include "index/frame_index.h"
#include "index/index_store.h"
#include "store/catalog_store.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "video/video_io.h"

namespace vdbperf {

namespace {

// Profiles spread over the Table-5 genres (drama, cartoon, sitcom, news,
// sports, documentary, ...), each with its own look and cutting rhythm.
constexpr int kProfilePick[] = {0, 1, 2, 6, 10, 15, 19, 4};
constexpr uint64_t kClipSeed = 1009;
// Longest run of one base shot inside a derived video.
constexpr int kMaxPieceFrames = 48;

vdb::Storyboard ClipStoryboard(int i, double scale) {
  std::vector<vdb::ClipProfile> profiles = vdb::Table5Profiles();
  const vdb::ClipProfile& profile =
      profiles[static_cast<size_t>(kProfilePick[i % 8]) % profiles.size()];
  return vdb::MakeStoryboardFromProfile(profile, scale,
                                        kClipSeed + static_cast<uint64_t>(i));
}

class DerivedSource : public vdb::stream::FrameSource {
 public:
  DerivedSource(const std::vector<BaseClip>* clips, const DerivedSpec* spec,
                PullLog* log)
      : clips_(clips), spec_(spec), log_(log) {}

  const std::string& name() const override { return spec_->name; }
  double fps() const override { return spec_->fps; }
  int width() const override { return spec_->width; }
  int height() const override { return spec_->height; }
  int frame_count() const override { return spec_->frames; }
  bool AtEnd() const override { return next_ >= spec_->frames; }

  vdb::Result<vdb::Frame> Next() override {
    if (AtEnd()) return vdb::Status::OutOfRange("derived source exhausted");
    Tracer::Scope span("stream.source_next");
    int index = next_++;
    vdb::Frame frame = DeriveFrame(*clips_, *spec_, index);
    if (log_ != nullptr) {
      log_->pulled_ns[static_cast<size_t>(index)].store(
          NowNs(), std::memory_order_release);
    }
    return frame;
  }

  vdb::Status SeekToFrame(int frame_index) override {
    if (frame_index < 0 || frame_index > spec_->frames) {
      return vdb::Status::OutOfRange("seek past the end");
    }
    next_ = frame_index;
    return vdb::Status::Ok();
  }

 private:
  const std::vector<BaseClip>* clips_;
  const DerivedSpec* spec_;
  PullLog* log_;
  int next_ = 0;
};

}  // namespace

vdb::Result<std::vector<BaseClip>> LoadBaseClips(const std::string& cache_dir,
                                                 int count, double scale) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  std::vector<BaseClip> clips(static_cast<size_t>(count));
  std::vector<vdb::Status> statuses(static_cast<size_t>(count));
  std::vector<std::thread> workers;
  for (int i = 0; i < count; ++i) {
    workers.emplace_back([&, i] {
      vdb::Storyboard storyboard = ClipStoryboard(i, scale);
      BaseClip& clip = clips[static_cast<size_t>(i)];
      clip.truth = vdb::TruthFromStoryboard(storyboard);
      std::string path = cache_dir + "/clip-" + std::to_string(i) + "-" +
                         std::to_string(static_cast<int>(scale * 1000)) +
                         ".vdb";
      vdb::Result<vdb::Video> cached = vdb::ReadVideoFile(path);
      if (cached.ok() && cached->frame_count() == storyboard.TotalFrames()) {
        clip.video = std::move(*cached);
        return;
      }
      vdb::Result<vdb::SyntheticVideo> rendered =
          vdb::RenderStoryboard(storyboard);
      if (!rendered.ok()) {
        statuses[static_cast<size_t>(i)] = rendered.status();
        return;
      }
      clip.video = std::move(rendered->video);
      std::string tmp = path + ".tmp" + std::to_string(::getpid());
      if (vdb::WriteVideoFile(clip.video, tmp).ok()) {
        std::filesystem::rename(tmp, path, ec);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const vdb::Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return clips;
}

DerivedSpec MakeDerived(const std::vector<BaseClip>& clips,
                        const std::string& name, int frames,
                        std::mt19937_64* rng) {
  DerivedSpec spec;
  spec.name = name;
  spec.fps = clips[0].video.fps();
  spec.width = clips[0].video.width();
  spec.height = clips[0].video.height();
  spec.frames = frames;
  int total = 0;
  while (total < frames) {
    int c = static_cast<int>((*rng)() % clips.size());
    const vdb::GroundTruth& truth = clips[static_cast<size_t>(c)].truth;
    const vdb::ShotTruth& shot = truth.shots[(*rng)() % truth.shots.size()];
    int length = std::min(shot.end_frame - shot.start_frame + 1,
                          kMaxPieceFrames);
    length = std::min(length, frames - total);
    spec.piece_first.push_back(total);
    spec.pieces.push_back({c, shot.start_frame, length});
    total += length;
  }
  for (auto& channel : spec.lut) {
    int gain = 180 + static_cast<int>((*rng)() % 150);  // x/256
    int offset = static_cast<int>((*rng)() % 81) - 40;
    for (int v = 0; v < 256; ++v) {
      channel[static_cast<size_t>(v)] = static_cast<uint8_t>(
          std::clamp(((v * gain) >> 8) + offset, 0, 255));
    }
  }
  return spec;
}

vdb::Frame DeriveFrame(const std::vector<BaseClip>& clips,
                       const DerivedSpec& spec, int index) {
  size_t p = static_cast<size_t>(
      std::upper_bound(spec.piece_first.begin(), spec.piece_first.end(),
                       index) -
      spec.piece_first.begin() - 1);
  const DerivedSpec::Piece& piece = spec.pieces[p];
  const vdb::Frame& src = clips[static_cast<size_t>(piece.clip)].video.frame(
      piece.start + (index - spec.piece_first[p]));
  vdb::Frame out(src.width(), src.height());
  const vdb::PixelRGB* in = src.pixels().data();
  vdb::PixelRGB* dst = out.pixels().data();
  const auto& r = spec.lut[0];
  const auto& g = spec.lut[1];
  const auto& b = spec.lut[2];
  for (size_t i = 0, n = src.pixel_count(); i < n; ++i) {
    dst[i].r = r[in[i].r];
    dst[i].g = g[in[i].g];
    dst[i].b = b[in[i].b];
  }
  return out;
}

vdb::Video Materialize(const std::vector<BaseClip>& clips,
                       const DerivedSpec& spec) {
  vdb::Video video(spec.name, spec.fps);
  for (int i = 0; i < spec.frames; ++i) {
    video.AppendFrame(DeriveFrame(clips, spec, i));
  }
  return video;
}

vdb::Result<std::vector<IngestChunk>> IngestSpecs(
    const std::vector<BaseClip>& clips, const std::vector<DerivedSpec>& specs,
    int chunk, vdb::VideoDatabase* db) {
  std::vector<IngestChunk> chunks;
  for (size_t first = 0; first < specs.size();
       first += static_cast<size_t>(chunk)) {
    std::vector<vdb::Video> batch;
    long frames = 0;
    for (size_t i = first;
         i < std::min(specs.size(), first + static_cast<size_t>(chunk)); ++i) {
      batch.push_back(Materialize(clips, specs[i]));
      frames += specs[i].frames;
    }
    IngestChunk timed;
    timed.frames = frames;
    timed.start_ns = NowNs();
    vdb::BatchIngestResult ingested = db->IngestBatch(batch);
    timed.end_ns = NowNs();
    if (!ingested.ok()) return ingested.first_error;
    chunks.push_back(timed);
  }
  return chunks;
}

vdb::Result<PublishTimes> PublishStore(const vdb::VideoDatabase& db,
                                       const std::string& dir) {
  PublishTimes times;
  int64_t start = NowNs();
  vdb::store::CatalogStore store(dir);
  vdb::Result<vdb::store::SaveStats> saved = store.Save(db);
  if (!saved.ok()) return saved.status();
  times.save_ms = SecondsSince(start) * 1e3;
  start = NowNs();
  vdb::index::FrameIndex frame_index = vdb::index::FrameIndex::Build(db);
  vdb::Status index_saved = vdb::index::SaveFrameIndex(
      dir, saved->generation, frame_index, /*fault_hook=*/nullptr);
  if (!index_saved.ok()) return index_saved;
  times.index_ms = SecondsSince(start) * 1e3;
  return times;
}

std::unique_ptr<vdb::stream::FrameSource> MakeDerivedSource(
    const std::vector<BaseClip>* clips, const DerivedSpec* spec,
    PullLog* log) {
  return std::make_unique<DerivedSource>(clips, spec, log);
}

}  // namespace vdbperf
