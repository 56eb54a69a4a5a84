#pragma once

// mrc::api — the single public entry point of the library.
//
// One Options struct (codec choice, error-bound mode, pipeline / ROI /
// codec tuning knobs; parseable from "key=value" strings for CLIs) and four
// free functions cover the whole workflow:
//
//   api::compress / api::decompress      — one field through one codec
//   api::compress_adaptive / api::restore — the paper's full pipeline:
//       ROI extraction -> multi-resolution SZ3MR -> self-describing snapshot,
//       and back to a uniform grid.
//   api::compress_tiled / api::read_region — the brick-tiled container:
//       every brick compressed independently on the exec thread pool
//       (Options::tile / Options::threads), random-access region reads that
//       decode only intersecting bricks.
//   api::build_pyramid / api::open_dataset — the LOD pyramid + the cached
//       Dataset serving layer: the field at resolutions 1, 1/2, 1/4, ...
//       (Options::levels), served through a byte-budgeted LRU brick cache
//       (Options::cache_mb) with async neighbor prefetch (Options::prefetch)
//       and adaptive choose_level LOD selection.
//   api::compress_adaptive_roi — the adaptive multi-resolution container
//       (MRCA): every brick stored at its own level, chosen by an importance
//       map (Options::importance = halo|gradient|roi|file, Options::roi,
//       Options::coarse_level), decoded seam-free; open_dataset serves MRCA
//       streams through the same brick cache.
//   api::build_progressive — the progressive residual container (MRCR):
//       the coarsest level verbatim plus per-level residual streams, so a
//       region can be answered coarse-first and refined in place
//       (serve::wire progressive reads stream exactly those layers).
//
// Every stream these functions produce starts with the shared container
// header (compressor.h), so api::info identifies any of them — single-field
// codec streams and multi-level snapshots alike — by peeking a few header
// bytes, never by decompressing or probing codecs with exceptions.
//
//   const FieldF f = ...;
//   auto opt = api::Options::parse("codec=zfpx,eb=1e-3,eb_mode=rel");
//   const Bytes stream = api::compress(f, opt);
//   const FieldF back = api::decompress(stream);
//
// New codecs become available here (and in every CLI/bench built on this
// facade) by adding a CodecRegistry entry — no caller changes.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adaptive/adaptive.h"
#include "compressors/registry.h"
#include "core/workflow.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "serve/server.h"
#include "tiled/tiled.h"

namespace mrc::api {

enum class EbMode : std::uint8_t {
  relative,  ///< `eb` is a fraction of the field's value range
  absolute,  ///< `eb` is the absolute bound itself
};

/// Unified configuration for the whole compression surface; subsumes
/// sz3mr::Config plus the ROI and per-codec tuning.
struct Options {
  // Codec + error bound.
  std::string codec = "interp";  ///< any registry name
  double eb = 1e-4;
  EbMode eb_mode = EbMode::relative;

  // Multi-resolution pipeline (compress_adaptive / snapshots).
  MergeKind merge = MergeKind::linear;
  bool pad = true;
  PadKind pad_kind = PadKind::linear;
  /// Per-level error-bound tightening. Unset = context default: ON for the
  /// multi-resolution pipeline (the paper's full SZ3MR), OFF for single-codec
  /// compress (plain-codec behavior). Set it to force either path.
  std::optional<bool> adaptive_eb;
  double alpha = 2.25;
  double beta = 8.0;
  std::uint32_t quant_radius = 512;
  bool postprocess = false;

  // ROI extraction (compress_adaptive).
  index_t roi_block = 16;
  double roi_fraction = 0.5;

  // Codec-specific tuning.
  index_t block_size = 0;  ///< lorenzo block edge; 0 = codec default
  bool use_regression = true;
  /// Exec-pool lanes: brick compression in compress_tiled and the other
  /// brick containers, the chunk count of the chunked codecs (lorenzo,
  /// zfpx), and one interp stream's sweeps and entropy encode — which is how
  /// compress_adaptive spreads its ROI extraction and each snapshot level,
  /// levels one after another. Interp bytes do not depend on it. 0 = hardware.
  int threads = 1;
  /// Requested entropy shards per Huffman code stream (negotiated down by
  /// stream size). > 1 writes the v7 sharded layout so one large brick's
  /// decode fans out across the pool; the default 1 keeps every stream
  /// byte-identical to the frozen v6 bytes.
  std::uint32_t entropy_shards = 1;

  // Tiled container (compress_tiled / read_region).
  index_t tile = tiled::kDefaultBrick;  ///< brick edge

  // Pyramid + Dataset serving (build_pyramid / open_dataset).
  int levels = 0;           ///< pyramid level count; 0 = auto (one-brick coarsest)
  double cache_mb = 256.0;  ///< Dataset brick-cache budget in MiB
  bool prefetch = true;     ///< Dataset async neighbor-brick warming

  // Adaptive container (compress_adaptive_roi).
  /// Importance source: "halo" (halo-finder membership), "gradient"
  /// (|∇f| ranking), "roi" (explicit box, requires `roi`), "file"
  /// (io::write_raw score field at `importance_file`).
  std::string importance = "gradient";
  std::string importance_file;   ///< importance=file: path of the score field
  /// importance=roi box, finest-grid half-open [lo, hi). Parseable as
  /// "roi=x0:y0:z0:x1:y1:z1" (':' keeps Options::parse's comma-splitting
  /// happy; ',' is also accepted when set directly, e.g. from CLI args).
  std::optional<tiled::Box> roi;
  int coarse_level = 2;          ///< level of unimportant bricks
  /// importance=halo density cut; 0 = auto (the top-0.2%-of-cells quantile,
  /// the halo-preservation bench's convention).
  double halo_threshold = 0.0;

  /// Applies one "key=value" assignment. Throws ContractError on an unknown
  /// key or unparseable value — unknown keys are rejected with the full list
  /// of valid keys, never silently ignored.
  void set(const std::string& key, const std::string& value);

  /// Parses a comma-separated "key=value,key=value" list (empty items are
  /// ignored, so trailing commas are fine).
  [[nodiscard]] static Options parse(const std::string& spec);

  /// Serializes every knob as "key=value,..."; parse(to_string())
  /// round-trips, so CLIs can echo the effective options of any run.
  [[nodiscard]] std::string to_string() const;

  /// The knobs a codec factory understands.
  [[nodiscard]] CodecTuning tuning() const;

  /// The multi-resolution pipeline configuration.
  [[nodiscard]] sz3mr::Config pipeline() const;

  /// The tiled-container configuration (codec, tuning, tile, threads).
  [[nodiscard]] tiled::Config tiled_config() const;

  /// The pyramid-build configuration (codec, tuning, tile, threads, levels).
  [[nodiscard]] pyramid::Config pyramid_config() const;

  /// The progressive-build configuration (same knobs as the pyramid's).
  [[nodiscard]] progressive::Config progressive_config() const;

  /// The adaptive-container configuration (codec, tuning, tile, threads,
  /// pad_kind).
  [[nodiscard]] adaptive::Config adaptive_config() const;

  /// The Dataset serving configuration (cache_mb, threads, prefetch).
  [[nodiscard]] serve::Config serve_config() const;

  /// The multi-tenant serve::Server configuration — same knobs, but
  /// cache_mb budgets ONE cache shared by every dataset the server opens.
  [[nodiscard]] serve::ServerConfig server_config() const;

  /// Resolves the error bound against a concrete field.
  [[nodiscard]] double absolute_eb(const FieldF& f) const;
};

/// Compresses one field with the configured codec.
[[nodiscard]] Bytes compress(const FieldF& f, const Options& opt = {});

/// Reconstructs a uniform field from any stream this facade produces: codec
/// streams decode through the registry (magic-peek dispatch), snapshots are
/// restored to the uniform grid, containers (MRCT/MRCP/MRCA/MRCR) decode
/// their finest grid. All of them decode on `threads` exec-pool lanes
/// (0 = hardware concurrency; the result is bit-identical for any width).
/// The default is one lane for every stream, a snapshot included: unlike
/// restore, whose default is the hardware width. Throws CodecError on
/// foreign data.
[[nodiscard]] FieldF decompress(std::span<const std::byte> stream, int threads = 1);

/// The paper's full workflow: ROI-based adaptive conversion + per-level
/// SZ3MR compression, returned as one self-describing snapshot stream. The
/// pipeline is interp-based; a different `opt.codec` is rejected with
/// ContractError rather than silently ignored.
[[nodiscard]] Bytes compress_adaptive(const FieldF& uniform, const Options& opt = {});

/// Decodes a snapshot back to its multi-resolution form, on `threads`
/// exec-pool lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] MultiResField restore_adaptive(std::span<const std::byte> snapshot,
                                             int threads = 0);

/// Decodes a snapshot and reconstructs the uniform fine-resolution grid, both
/// on `threads` exec-pool lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] FieldF restore(std::span<const std::byte> snapshot, int threads = 0);

/// Compresses `f` into the brick-tiled container: `opt.tile`-edge bricks
/// (+1-sample overlap), each compressed independently with `opt.codec` on a
/// pool of `opt.threads` lanes. The stream supports parallel decompression
/// and random-access region reads, and is byte-identical for any thread
/// count.
[[nodiscard]] Bytes compress_tiled(const FieldF& f, const Options& opt = {});

/// Reads `region` out of a tiled stream, decoding only the bricks that
/// intersect it — bit-identical to the same window of a full decompress.
/// threads = 0 means hardware concurrency.
[[nodiscard]] FieldF read_region(std::span<const std::byte> stream,
                                 const tiled::Box& region, int threads = 1);

/// Builds the LOD pyramid container: `f` at resolutions 1, 1/2, 1/4, ...
/// (`opt.levels` levels; 0 = auto until the coarsest level fits one brick),
/// every level a brick-tiled stream compressed in parallel with `opt.codec`.
[[nodiscard]] Bytes build_pyramid(const FieldF& f, const Options& opt = {});

/// Builds the progressive residual container (MRCR): the restrict_half
/// chain of `f` (`opt.levels` levels; 0 = auto until the coarsest fits one
/// brick) stored as the coarsest level verbatim plus one residual stream
/// per finer level, each brick-tiled and compressed with `opt.codec` under
/// the same absolute bound. Reconstruction is strictly top-down and
/// bit-deterministic; the per-level error bound telescopes (see
/// progressive/progressive.h). open_dataset and serve::Server serve MRCR
/// streams, including coarse-first progressive wire reads.
[[nodiscard]] Bytes build_progressive(const FieldF& f, const Options& opt = {});

/// Builds the adaptive multi-resolution container (MRCA): bricks the
/// importance map marks as interesting stay at full resolution (level 0,
/// byte-identical to the tiled container), the rest drop to
/// `opt.coarse_level`. The importance map comes from `opt.importance`:
/// "halo" runs the halo finder on `f` itself, "gradient"/"file" keep the
/// top `opt.roi_fraction` of bricks by score, "roi" pins `opt.roi`.
/// Decoding (api::decompress / adaptive::read_region / open_dataset) is
/// seam-free across level boundaries.
[[nodiscard]] Bytes compress_adaptive_roi(const FieldF& f, const Options& opt = {});

/// Opens a tiled (MRCT), pyramid (MRCP), adaptive (MRCA) or progressive
/// (MRCR) stream — taking ownership of the bytes — as a cached serving
/// Dataset: region reads through a `opt.cache_mb` LRU brick cache with
/// async prefetch, plus choose_level adaptive LOD (pyramids and
/// progressive streams; tiled and adaptive streams serve level 0 — for
/// adaptive that is the seam-free mixed-resolution reconstruction). To
/// serve many streams from one process behind one shared cache, construct
/// a serve::Server (Options::server_config()) instead and Server::open
/// each stream.
[[nodiscard]] serve::Dataset open_dataset(Bytes stream, const Options& opt = {});

/// What a stream is, from its container header alone (no decompression).
struct StreamInfo {
  enum class Kind : std::uint8_t {
    field, level, snapshot, tiled, pyramid, adaptive, progressive
  };
  Kind kind = Kind::field;
  std::string codec;  ///< registry name ("snapshot"/"sz3mr" for those kinds;
                      ///< the per-brick codec for tiled/pyramid/adaptive streams)
  unsigned version = 0;
  /// Entropy-layout minor version of the container header: the shard count
  /// each Huffman code stream was split into (1 = frozen monolithic v6
  /// layout; containers of bricks report the outer header, their per-brick
  /// streams carry their own).
  std::uint32_t entropy_shards = 1;
  Dim3 dims;          ///< field extents (snapshot/pyramid: finest-grid extents)
  double eb = 0.0;    ///< absolute error bound the stream was encoded under
  /// snapshot/pyramid/progressive level count; adaptive streams report 1 +
  /// the maximum per-brick level (1 otherwise).
  std::size_t levels = 1;
  std::size_t stream_bytes = 0;

  // Tile geometry (tiled/adaptive streams; pyramids report level 0's brick).
  index_t brick = 0;    ///< core brick edge
  index_t overlap = 0;  ///< overlap samples per high face
  Dim3 tile_grid;       ///< tile counts per axis
  std::size_t tiles = 0;

  /// Full pyramid level table (extents, compressed bytes, value range, LOD
  /// error bound), finest first — what `mrcc info` prints so adaptive/LOD
  /// decisions are inspectable without decoding anything.
  struct LevelMeta {
    Dim3 dims;
    std::uint64_t bytes = 0;
    float vmin = 0.0f;
    float vmax = 0.0f;
    float approx_err = 0.0f;
  };
  std::vector<LevelMeta> level_meta;  ///< pyramid/progressive streams, finest first
};

/// Identifies any mrcomp stream by its header. Throws CodecError on foreign
/// or truncated data.
[[nodiscard]] StreamInfo info(std::span<const std::byte> stream);

}  // namespace mrc::api
