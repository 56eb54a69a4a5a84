#pragma once

// SZ3MR: the paper's multi-resolution compression pipeline (§III-A) plus the
// baselines it is evaluated against.
//
// Per level:  scan unit blocks → gather them from the level grid into the
//             merge layout (linear / stack / TAC) [padding the two small
//             dims in the same pass] → SZ3-class compression with
//             [per-level adaptive error bounds] → self-describing stream.
// Decompression mirrors the pipeline: one scatter per layout puts the
// decoded samples back into the level grid, after the optional Bézier
// post-process of the merged array ("Ours (processed)").
//
// Named presets reproduce the curves of Figs. 15/17/18:
//   baseline_sz3()  — linear merge, plain SZ3
//   amric_sz3()     — AMRIC's stack merge, plain SZ3
//   tac_sz3()       — TAC's adjacency merge, plain SZ3 per box (offline only)
//   ours_pad()      — linear merge + padding
//   ours_pad_eb()   — + adaptive error bound (the full SZ3MR)
//   ours_processed()— + sampled Bézier post-process
//
// This is the pipeline layer under the "api/mrc_api.h" facade: applications
// normally call api::compress_adaptive / api::restore with an api::Options
// (which subsumes this Config) instead of driving sz3mr directly. Level
// streams start with the shared container header of compressor.h under
// kLevelMagic, so one reader (peek_header) identifies them too.

#include "compressors/registry.h"
#include "merge/merge_strategies.h"
#include "merge/padding.h"

namespace mrc::sz3mr {

/// Container-header stream id of an sz3mr level stream.
inline constexpr std::uint32_t kLevelMagic = 0x314c'524d;  // "MRL1"

/// A linear merge is padded only when unit > 4 (paper §III-A): below that the
/// pad layer's (u+1)^2/u^2 overhead outweighs the better prediction.
inline constexpr index_t kMinPadUnit = 5;

struct Config {
  MergeKind merge = MergeKind::linear;
  bool pad = true;  ///< pad a linear merge whose unit is >= kMinPadUnit
  PadKind pad_kind = PadKind::linear;
  bool adaptive_eb = true;
  double alpha = 2.25;
  double beta = 8.0;
  std::uint32_t quant_radius = 512;
  bool postprocess = false;  ///< tune + embed Bézier intensities in the stream
  /// Exec-pool lanes of each level's block gather, interp sweeps and
  /// entropy encode. Levels are coded one after another, each at this full
  /// width (compress_multires / encode_snapshot / write_snapshot); streams
  /// are byte-identical for any value. 0 = hardware.
  int threads = 1;
};

[[nodiscard]] Config baseline_sz3();
[[nodiscard]] Config amric_sz3();
[[nodiscard]] Config tac_sz3();
[[nodiscard]] Config ours_pad();
[[nodiscard]] Config ours_pad_eb();
[[nodiscard]] Config ours_processed();

/// Preprocessing output — separated from encoding so the in-situ experiment
/// (Table IV) can time "collect data into the compression buffer" apart from
/// "compress and write".
struct PreparedLevel {
  UnitBlockSet set;             ///< block ids + geometry; the samples are in merged/boxes
  FieldF merged;                ///< linear/stack merges
  std::vector<TacBox> boxes;    ///< tac merge
  index_t ratio = 1;
  bool padded = false;
  Config cfg;
};

[[nodiscard]] PreparedLevel prepare_level(const LevelData& level, index_t unit,
                                          const Config& cfg);
[[nodiscard]] Bytes encode_prepared(const PreparedLevel& prep, double abs_eb);

/// prepare + encode in one call.
[[nodiscard]] Bytes compress_level(const LevelData& level, index_t unit, double abs_eb,
                                   const Config& cfg);

/// Full inverse; reconstructs the level's data + mask (zeros elsewhere) with
/// one scatter per stream. The pad layer is stripped only ahead of the
/// Bézier post-process; otherwise the linear scatter skips it. The interp
/// decode and a linear merge's scatter run on `threads` exec-pool lanes
/// (0 = hardware); the result is identical for any width. A stream whose
/// merge byte, pad flag, merged extents or TAC boxes disagree with its block
/// list throws CodecError before any sample is copied.
[[nodiscard]] LevelData decompress_level(std::span<const std::byte> stream,
                                         int threads = 1);

/// Hierarchy-level driver. Unit block size per level = block_size / ratio.
struct MultiResStreams {
  std::vector<Bytes> level_streams;
  [[nodiscard]] std::size_t total_bytes() const;
};

/// Levels code one after another, each on cfg.threads lanes.
[[nodiscard]] MultiResStreams compress_multires(const MultiResField& mr, double abs_eb,
                                                const Config& cfg);
/// Levels decode one after another, each on `threads` lanes (Config::threads'
/// rule and default); the result is identical for any width.
[[nodiscard]] MultiResField decompress_multires(const MultiResStreams& streams,
                                                int threads = 1);

/// Compression ratio over the *stored* samples of the hierarchy.
[[nodiscard]] double multires_ratio(const MultiResField& mr, const MultiResStreams& s);

}  // namespace mrc::sz3mr
