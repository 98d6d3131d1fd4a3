// vdbtool — command-line front end for the video database library.
//
//   vdbtool synth <preset> <out.vdb>         generate a synthetic clip
//   vdbtool info <clip.vdb>                  container header + stats
//   vdbtool analyze <clip.vdb>...            segment, features, motion, tree
//   vdbtool catalog <out.vdbcat> <clip.vdb>...  analyse clips into a catalog
//   vdbtool store-save <store-dir> <clip.vdb>...  analyse clips, publish the
//                                            next store generation
//   vdbtool store-open <store-dir>           open + summarise a store
//   vdbtool store-compact <store-dir>        GC old generations and orphans
//   vdbtool store-shard <store-dir> <out-dir> <shards> [seed]
//                                            split a store into per-shard
//                                            stores for a vdbrouter cluster
//   vdbtool stream-ingest <clip.vdb> <store-dir> [shots-per-checkpoint]
//                                            streaming ingest with live
//                                            checkpoint publishes
//   vdbtool index-build <store-dir>          build + publish the frame index
//                                            of the store's newest generation
//   vdbtool index-query <store-dir> <video> <shot> [k]
//                                            query-by-frame against the
//                                            store's frame index
//   vdbtool tree <clip.vdb>                  print the scene tree
//   vdbtool query <catalog.vdbcat> <varBA> <varOA> [k] [genre=G] [form=F]
//   vdbtool classify <catalog.vdbcat> <video-id> <form> <genre>...
//   vdbtool browse <clip.vdb> [child.child...]  walk the scene tree
//   vdbtool export-frame <clip.vdb> <frame#> <out.ppm>   dump one frame
//   vdbtool presets                          list synthetic presets
//   vdbtool version                          build + SIMD dispatch info
//
// Presets: "ten-shot", "friends", "simon-birch", "wag-the-dog", or any
// Table-5 clip name prefix ("Silk", "Scooby", ...; scaled by the optional
// trailing argument, default 0.1).

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "cluster/shard_store.h"
#include "index/frame_index.h"
#include "index/index_store.h"
#include "core/browser.h"
#include "core/catalog_io.h"
#include "core/fingerprint.h"
#include "core/kernels/simd.h"
#include "core/motion.h"
#include "core/video_database.h"
#include "farm/committer.h"
#include "store/catalog_store.h"
#include "stream/frame_source.h"
#include "stream/pipeline.h"
#include "synth/presets.h"
#include "synth/renderer.h"
#include "synth/workload.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "video/image_io.h"
#include "video/video_io.h"

namespace vdb {
namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  vdbtool synth <preset> <out.vdb> [scale]\n"
      "  vdbtool info <clip.vdb>\n"
      "  vdbtool analyze <clip.vdb>...\n"
      "  vdbtool catalog <out.vdbcat> <clip.vdb>...\n"
      "  vdbtool store-save <store-dir> <clip.vdb>...\n"
      "  vdbtool store-open <store-dir>\n"
      "  vdbtool store-compact <store-dir>\n"
      "  vdbtool store-shard <store-dir> <out-dir> <shards> [seed]\n"
      "  vdbtool stream-ingest <clip.vdb> <store-dir> "
      "[shots-per-checkpoint]\n"
      "  vdbtool index-build <store-dir>\n"
      "  vdbtool index-query <store-dir> <video> <shot> [k]\n"
      "  vdbtool tree <clip.vdb>\n"
      "  vdbtool query <catalog.vdbcat> <varBA> <varOA> [k] [genre=G] "
      "[form=F]\n"
      "  vdbtool classify <catalog.vdbcat> <video-id> <form> <genre>...\n"
      "  vdbtool browse <clip.vdb> [child.child...]\n"
      "  vdbtool export-frame <clip.vdb> <frame#> <out.ppm>\n"
      "  vdbtool presets\n"
      "  vdbtool version\n"
      "serving a catalog (separate tools):\n"
      "  vdbserve <catalog.vdbcat>... --port N   long-lived query service\n"
      "  vdbload --port N                        load generator / latency "
      "bench\n"
      "  vdbstream --streams N --preset P        multi-tenant ingest farm\n";
  return 2;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

Result<Storyboard> PresetBoard(const std::string& preset, double scale) {
  if (preset == "ten-shot") return TenShotStoryboard();
  if (preset == "friends") return FriendsStoryboard();
  if (preset == "simon-birch") return SimonBirchStoryboard();
  if (preset == "wag-the-dog") return WagTheDogStoryboard();
  for (const ClipProfile& profile : Table5Profiles()) {
    if (StartsWith(profile.name, preset)) {
      return MakeStoryboardFromProfile(profile, scale, 2000);
    }
  }
  return Status::NotFound("no preset matching '" + preset + "'");
}

int CmdPresets() {
  std::cout << "built-in presets:\n"
               "  ten-shot      the paper's Figure-5 example clip\n"
               "  friends       the Figure-7 restaurant segment\n"
               "  simon-birch   retrieval-experiment movie clip\n"
               "  wag-the-dog   retrieval-experiment movie clip\n"
               "table-5 genre clips (match by name prefix):\n";
  for (const ClipProfile& profile : Table5Profiles()) {
    std::cout << "  " << profile.name << " [" << profile.category << "]\n";
  }
  return 0;
}

int CmdSynth(const std::string& preset, const std::string& out,
             double scale) {
  Result<Storyboard> board = PresetBoard(preset, scale);
  if (!board.ok()) return Fail(board.status());
  Result<SyntheticVideo> rendered = RenderStoryboard(*board);
  if (!rendered.ok()) return Fail(rendered.status());
  Status written = WriteVideoFile(rendered->video, out);
  if (!written.ok()) return Fail(written);
  std::cout << "wrote " << out << ": " << rendered->video.frame_count()
            << " frames (" << rendered->truth.shots.size()
            << " scripted shots)\n";
  return 0;
}

int CmdInfo(const std::string& path) {
  Result<Video> video = ReadVideoFile(path);
  if (!video.ok()) return Fail(video.status());
  std::cout << path << ":\n"
            << "  name        " << video->name() << "\n"
            << "  frames      " << video->frame_count() << "\n"
            << "  resolution  " << video->width() << "x" << video->height()
            << "\n"
            << "  fps         " << video->fps() << "\n"
            << "  duration    " << FormatMinSec(video->DurationSeconds())
            << "\n";
  return 0;
}

int CmdAnalyze(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    Result<Video> video = ReadVideoFile(path);
    if (!video.ok()) return Fail(video.status());
    Result<VideoSignatures> sigs =
        ComputeVideoSignaturesParallel(*video);
    if (!sigs.ok()) return Fail(sigs.status());
    CameraTrackingDetector detector;
    Result<ShotDetectionResult> detection =
        detector.DetectFromSignatures(*sigs);
    if (!detection.ok()) return Fail(detection.status());
    Result<std::vector<ShotFingerprint>> fps =
        ComputeAllShotFingerprints(*sigs, detection->shots);
    if (!fps.ok()) return Fail(fps.status());

    std::cout << video->name() << ": " << detection->shots.size()
              << " shots\n";
    TablePrinter t({"Shot", "Frames", "Var^BA", "Var^OA", "D^v", "Motion",
                    "Mean colour"});
    for (size_t i = 0; i < detection->shots.size(); ++i) {
      const Shot& shot = detection->shots[i];
      const ShotFingerprint& fp = (*fps)[i];
      t.AddRow({StrFormat("#%zu", i + 1),
                StrFormat("%d-%d", shot.start_frame + 1,
                          shot.end_frame + 1),
                FormatDouble(fp.variances.var_ba, 2),
                FormatDouble(fp.variances.var_oa, 2),
                FormatDouble(fp.variances.Dv(), 2),
                std::string(CameraMotionLabelName(fp.motion)),
                StrFormat("(%d,%d,%d)", fp.mean_sign_ba.r,
                          fp.mean_sign_ba.g, fp.mean_sign_ba.b)});
    }
    t.Print(std::cout);
    std::cout << '\n';
  }
  return 0;
}

int CmdCatalog(const std::string& out,
               const std::vector<std::string>& paths) {
  VideoDatabase db;
  for (const std::string& path : paths) {
    Result<Video> video = ReadVideoFile(path);
    if (!video.ok()) return Fail(video.status());
    Result<int> id = db.Ingest(*video);
    if (!id.ok()) return Fail(id.status());
    std::cout << "ingested [" << *id << "] " << video->name() << "\n";
  }
  Status saved = SaveCatalog(db, out);
  if (!saved.ok()) return Fail(saved);
  std::cout << "catalog with " << db.video_count() << " videos and "
            << db.index().size() << " indexed shots written to " << out
            << "\n";
  return 0;
}

int CmdStoreSave(const std::string& dir,
                 const std::vector<std::string>& paths) {
  VideoDatabase db;
  BatchIngestResult batch = db.IngestBatchFiles(paths);
  if (!batch.ok()) return Fail(batch.first_error);
  for (size_t i = 0; i < paths.size(); ++i) {
    std::cout << "ingested [" << batch.video_ids[i] << "] " << paths[i]
              << "\n";
  }
  store::CatalogStore catalog_store(dir);
  Result<store::SaveStats> saved = catalog_store.Save(db);
  if (!saved.ok()) return Fail(saved.status());
  std::cout << "published generation " << saved->generation << " to " << dir
            << ": " << saved->segments_written << " segments written, "
            << saved->segments_reused << " reused\n";
  return 0;
}

int CmdStoreOpen(const std::string& dir) {
  store::CatalogStore catalog_store(dir);
  store::OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> db = catalog_store.Open(&stats);
  if (!db.ok()) return Fail(db.status());
  std::cout << dir << ": generation " << stats.generation << ", "
            << (*db)->video_count() << " videos, " << (*db)->index().size()
            << " indexed shots\n";
  if (stats.generations_skipped > 0) {
    std::cout << "  warning: skipped " << stats.generations_skipped
              << " corrupt newer generation(s); newest failure: "
              << stats.skipped_error << "\n";
  }
  for (int id = 0; id < (*db)->video_count(); ++id) {
    const CatalogEntry* entry = (*db)->GetEntry(id).value();
    std::cout << "  [" << id << "] " << entry->name << ": "
              << entry->shots.size() << " shots, "
              << entry->scene_tree.node_count() << " scene nodes\n";
  }
  return 0;
}

int CmdStreamIngest(const std::string& path, const std::string& dir,
                    int shots_per_checkpoint) {
  Result<std::unique_ptr<stream::FrameSource>> source =
      stream::OpenVideoFileSource(path);
  if (!source.ok()) return Fail(source.status());
  farm::CommitterOptions commit;
  commit.dir = dir;
  farm::Committer committer(commit);
  committer.Init();
  stream::PipelineOptions options;
  options.publish_dir = dir;
  options.checkpoint_every_shots = shots_per_checkpoint;
  options.publish = [&committer](const CatalogEntry& entry) {
    return committer.Publish(entry);
  };
  stream::Pipeline pipeline(options);
  Result<stream::PipelineResult> result = pipeline.Run(source->get());
  if (!result.ok()) return Fail(result.status());
  const stream::PipelineReport& report = result->report;
  std::cout << "streamed " << report.frames << " frames of "
            << result->entry.name << " into " << report.shots << " shots ("
            << FormatDouble(report.total_seconds, 2) << "s)\n"
            << "  " << report.checkpoints << " publish(es) to " << dir
            << ", final generation " << report.store_generation << "\n";
  return 0;
}

int CmdIndexBuild(const std::string& dir) {
  store::CatalogStore catalog_store(dir);
  store::OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> db = catalog_store.Open(&stats);
  if (!db.ok()) return Fail(db.status());
  index::FrameIndex frame_index = index::FrameIndex::Build(**db);
  Status saved =
      index::SaveFrameIndex(dir, stats.generation, frame_index);
  if (!saved.ok()) return Fail(saved);
  std::cout << "published frame index for generation " << stats.generation
            << ": " << frame_index.video_count() << " videos, "
            << frame_index.shot_count() << " shots, "
            << frame_index.posting_count() << " postings\n";
  return 0;
}

int CmdIndexQuery(const std::string& dir, int video_id, int shot_index,
                  int k) {
  store::CatalogStore catalog_store(dir);
  store::OpenStats stats;
  Result<std::unique_ptr<VideoDatabase>> db = catalog_store.Open(&stats);
  if (!db.ok()) return Fail(db.status());
  Result<index::FrameIndex> opened =
      index::OpenFrameIndex(dir, stats.generation);
  bool from_store = opened.ok();
  index::FrameIndex frame_index =
      from_store ? std::move(*opened) : index::FrameIndex::Build(**db);

  Result<const CatalogEntry*> entry = (*db)->GetEntry(video_id);
  if (!entry.ok()) return Fail(entry.status());
  if (shot_index < 0 ||
      shot_index >= static_cast<int>((*entry)->shots.size())) {
    return Fail(Status::OutOfRange(
        StrFormat("shot %d of %zu", shot_index, (*entry)->shots.size())));
  }
  const Shot& shot = (*entry)->shots[static_cast<size_t>(shot_index)];
  const Signature& query =
      (*entry)->signatures.frames[static_cast<size_t>(shot.start_frame)]
          .signature_ba;
  std::vector<uint64_t> tokens =
      index::SignatureTokenSet(query, frame_index.options().tokenizer);
  index::FrameQueryStats query_stats;
  std::vector<index::FrameHit> hits =
      frame_index.Query(tokens, k, &query_stats);
  std::cout << "queried shot#" << shot_index + 1 << " of [" << video_id
            << "] " << (*entry)->name << " against the "
            << (from_store ? "persisted" : "rebuilt") << " index: "
            << query_stats.query_tokens << " tokens, "
            << query_stats.candidates << " candidates, "
            << query_stats.probed << " probed\n";
  for (const index::FrameHit& hit : hits) {
    std::string name;
    Result<const CatalogEntry*> hit_entry = (*db)->GetEntry(hit.video_id);
    if (hit_entry.ok()) name = (*hit_entry)->name;
    std::cout << StrFormat("  score=%.4f  shot#%-3d of [%d] %s\n",
                           hit.score, hit.shot_index + 1, hit.video_id,
                           name.c_str());
  }
  return 0;
}

int CmdStoreCompact(const std::string& dir) {
  store::CatalogStore catalog_store(dir);
  Result<store::CompactStats> stats = catalog_store.Compact();
  if (!stats.ok()) return Fail(stats.status());
  std::cout << "kept generation " << stats->kept_generation << ", removed "
            << stats->removed_files << " file(s)\n";
  return 0;
}

int CmdStoreShard(const std::string& src, const std::string& out, int shards,
                  uint64_t seed) {
  if (shards < 1) {
    return Fail(Status::InvalidArgument("shard count must be >= 1"));
  }
  cluster::ShardMap map;
  map.shard_count = shards;
  map.seed = seed;
  Result<cluster::SplitStats> split = cluster::SplitStore(src, out, map);
  if (!split.ok()) return Fail(split.status());
  std::cout << "split generation " << split->generation << " of " << src
            << " into " << shards << " shard store(s) under " << out << ": "
            << split->segments_linked << " segments linked, "
            << split->segments_reused << " reused\n";
  for (size_t i = 0; i < split->videos_per_shard.size(); ++i) {
    std::cout << "  " << cluster::ShardDirName(static_cast<int>(i)) << ": "
              << split->videos_per_shard[i] << " video(s)\n";
  }
  return 0;
}

int CmdTree(const std::string& path) {
  Result<Video> video = ReadVideoFile(path);
  if (!video.ok()) return Fail(video.status());
  VideoDatabase db;
  Result<int> id = db.Ingest(*video);
  if (!id.ok()) return Fail(id.status());
  const CatalogEntry* entry = db.GetEntry(*id).value();
  std::cout << entry->scene_tree.ToAscii();
  return 0;
}

int CmdQuery(const std::string& catalog_path, double var_ba, double var_oa,
             int k, const ClassFilter& filter) {
  VideoDatabase db;
  Status loaded = LoadCatalog(catalog_path, &db);
  if (!loaded.ok()) return Fail(loaded);
  VarianceQuery query;
  query.var_ba = var_ba;
  query.var_oa = var_oa;
  Result<std::vector<BrowsingSuggestion>> result =
      (filter.genre_id >= 0 || filter.form_id >= 0)
          ? db.SearchWithinClass(query, k, filter)
          : db.Search(query, k);
  if (!result.ok()) return Fail(result.status());
  std::cout << "top " << result->size() << " matches for Var^BA=" << var_ba
            << " Var^OA=" << var_oa << ":\n";
  for (const BrowsingSuggestion& s : *result) {
    std::cout << StrFormat(
        "  shot#%-3d of %-24s  Var^BA=%7.2f D^v=%6.2f  browse from %s "
        "(key frame %d)\n",
        s.match.entry.shot_index + 1, s.video_name.c_str(),
        s.match.entry.var_ba, s.match.entry.Dv(), s.scene_label.c_str(),
        s.representative_frame + 1);
  }
  return 0;
}

int CmdClassify(const std::string& catalog_path, int video_id,
                const std::string& form,
                const std::vector<std::string>& genres) {
  VideoDatabase db;
  Status loaded = LoadCatalog(catalog_path, &db);
  if (!loaded.ok()) return Fail(loaded);
  Result<VideoClassification> classification =
      MakeClassification(genres, form);
  if (!classification.ok()) return Fail(classification.status());
  Status set = db.SetClassification(video_id, *classification);
  if (!set.ok()) return Fail(set);
  Status saved = SaveCatalog(db, catalog_path);
  if (!saved.ok()) return Fail(saved);
  std::cout << "video " << video_id << " classified as '"
            << ClassificationLabel(*classification) << "'\n";
  return 0;
}

int CmdBrowse(const std::string& path, const std::string& walk) {
  Result<Video> video = ReadVideoFile(path);
  if (!video.ok()) return Fail(video.status());
  VideoDatabase db;
  Result<int> id = db.Ingest(*video);
  if (!id.ok()) return Fail(id.status());
  const CatalogEntry* entry = db.GetEntry(*id).value();

  SceneBrowser browser(entry);
  // Walk the dotted child path, e.g. "0.1.0".
  for (const std::string& step : StrSplit(walk, '.')) {
    if (step.empty()) continue;
    Status moved = browser.EnterChild(std::atoi(step.c_str()));
    if (!moved.ok()) return Fail(moved);
  }

  const SceneNode& node = browser.CurrentNode();
  Shot span = browser.CoverageSpan();
  std::cout << browser.Breadcrumbs() << "\n"
            << "  frames " << span.start_frame + 1 << "-"
            << span.end_frame + 1 << "\n";
  auto key_frames = browser.KeyFrames(node.IsLeaf() ? 1 : 3);
  if (key_frames.ok()) {
    std::cout << "  key frames:";
    for (int f : *key_frames) std::cout << ' ' << f + 1;
    std::cout << "\n";
  }
  std::cout << "  children:\n";
  for (size_t i = 0; i < node.children.size(); ++i) {
    const SceneNode& child = entry->scene_tree.node(node.children[i]);
    std::cout << "    [" << i << "] " << child.Label();
    if (child.IsLeaf()) std::cout << "  (shot#" << child.shot_index + 1
                                  << ")";
    std::cout << "\n";
  }
  if (node.children.empty()) std::cout << "    (leaf)\n";
  return 0;
}

int CmdExportFrame(const std::string& path, int frame_no,
                   const std::string& out) {
  Result<Video> video = ReadVideoFile(path);
  if (!video.ok()) return Fail(video.status());
  if (frame_no < 1 || frame_no > video->frame_count()) {
    return Fail(Status::OutOfRange(
        StrFormat("frame %d of %d (frames are 1-based)", frame_no,
                  video->frame_count())));
  }
  Status written = WritePpm(video->frame(frame_no - 1), out);
  if (!written.ok()) return Fail(written);
  std::cout << "wrote " << out << "\n";
  return 0;
}

// Build/runtime identification: which SIMD dispatch levels this binary
// carries, what the CPU supports, and which one the kernels selected
// (VDB_SIMD overrides detection; see core/kernels/simd.h).
int CmdVersion() {
  std::cout << "vdbtool (video database toolkit)\n"
            << "simd: " << SimdLevelName(ActiveSimdLevel()) << " (detected "
            << SimdLevelName(DetectedSimdLevel()) << "; available";
  for (SimdLevel level : AvailableSimdLevels()) {
    std::cout << " " << SimdLevelName(level);
  }
  std::cout << ")\n";
  return 0;
}

bool KnownCommand(const std::string& cmd) {
  static const char* const kCommands[] = {
      "presets",    "synth",      "info",          "analyze",
      "catalog",    "store-save", "store-open",    "store-compact",
      "store-shard", "stream-ingest",              "tree",          "query",
      "classify",   "browse",     "export-frame",  "index-build",
      "index-query", "version",
  };
  for (const char* known : kCommands) {
    if (cmd == known) return true;
  }
  return false;
}

int Run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "vdbtool: missing command\n";
    return Usage();
  }
  const std::string& cmd = args[0];

  if (cmd == "presets") return CmdPresets();
  if (cmd == "version") return CmdVersion();
  if (cmd == "synth" && args.size() >= 3) {
    double scale = args.size() >= 4 ? std::atof(args[3].c_str()) : 0.1;
    return CmdSynth(args[1], args[2], scale > 0 ? scale : 0.1);
  }
  if (cmd == "info" && args.size() == 2) return CmdInfo(args[1]);
  if (cmd == "analyze" && args.size() >= 2) {
    return CmdAnalyze({args.begin() + 1, args.end()});
  }
  if (cmd == "catalog" && args.size() >= 3) {
    return CmdCatalog(args[1], {args.begin() + 2, args.end()});
  }
  if (cmd == "store-save" && args.size() >= 3) {
    return CmdStoreSave(args[1], {args.begin() + 2, args.end()});
  }
  if (cmd == "store-open" && args.size() == 2) return CmdStoreOpen(args[1]);
  if (cmd == "store-compact" && args.size() == 2) {
    return CmdStoreCompact(args[1]);
  }
  if (cmd == "store-shard" && (args.size() == 4 || args.size() == 5)) {
    uint64_t seed =
        args.size() == 5 ? std::strtoull(args[4].c_str(), nullptr, 10) : 0;
    return CmdStoreShard(args[1], args[2], std::atoi(args[3].c_str()), seed);
  }
  if (cmd == "stream-ingest" && (args.size() == 3 || args.size() == 4)) {
    int every = args.size() == 4 ? std::atoi(args[3].c_str()) : 0;
    return CmdStreamIngest(args[1], args[2], every > 0 ? every : 0);
  }
  if (cmd == "index-build" && args.size() == 2) {
    return CmdIndexBuild(args[1]);
  }
  if (cmd == "index-query" && (args.size() == 4 || args.size() == 5)) {
    int k = args.size() == 5 ? std::atoi(args[4].c_str()) : 0;
    return CmdIndexQuery(args[1], std::atoi(args[2].c_str()),
                         std::atoi(args[3].c_str()), k > 0 ? k : 5);
  }
  if (cmd == "tree" && args.size() == 2) return CmdTree(args[1]);
  if (cmd == "query" && args.size() >= 4) {
    int k = 5;
    ClassFilter filter;
    for (size_t i = 4; i < args.size(); ++i) {
      if (StartsWith(args[i], "genre=")) {
        Result<int> genre = GenreIdByName(args[i].substr(6));
        if (!genre.ok()) return Fail(genre.status());
        filter.genre_id = *genre;
      } else if (StartsWith(args[i], "form=")) {
        Result<int> form = FormIdByName(args[i].substr(5));
        if (!form.ok()) return Fail(form.status());
        filter.form_id = *form;
      } else {
        int parsed = std::atoi(args[i].c_str());
        if (parsed > 0) k = parsed;
      }
    }
    return CmdQuery(args[1], std::atof(args[2].c_str()),
                    std::atof(args[3].c_str()), k, filter);
  }
  if (cmd == "classify" && args.size() >= 5) {
    return CmdClassify(args[1], std::atoi(args[2].c_str()), args[3],
                       {args.begin() + 4, args.end()});
  }
  if (cmd == "browse" && (args.size() == 2 || args.size() == 3)) {
    return CmdBrowse(args[1], args.size() == 3 ? args[2] : "");
  }
  if (cmd == "export-frame" && args.size() == 4) {
    return CmdExportFrame(args[1], std::atoi(args[2].c_str()), args[3]);
  }
  // Name the failure: an unrecognised command and a known command with the
  // wrong arity used to fall through to the same silent usage dump.
  if (!KnownCommand(cmd)) {
    std::cerr << "vdbtool: unknown command '" << cmd << "'\n";
  } else {
    std::cerr << "vdbtool: wrong arguments for '" << cmd << "'\n";
  }
  return Usage();
}

}  // namespace
}  // namespace vdb

int main(int argc, char** argv) { return vdb::Run(argc, argv); }
