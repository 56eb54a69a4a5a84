#pragma once

// LOD pyramid container: the field stored at resolutions 1, 1/2, 1/4, ...
// so a renderer (or the serve-layer Dataset) can pull the cheapest level
// that satisfies a sample or error budget instead of always paying for the
// finest grid. Every level is a complete brick-tiled stream (tiled/tiled.h)
// — any registered codec, parallel per-brick compression on the exec pool,
// random-access region reads — and the pyramid adds a small validated level
// table in front of the concatenated level streams.
//
// Stream layout (container header v4 under kPyramidMagic). The progressive
// residual pyramid (MRCR, progressive/progressive.h) shares this level table
// and its reader and writer (detail:: below); its records carry three more
// f32s, marked [MRCR]:
//   shared container header      finest-grid extents + absolute error bound
//   varint  n_levels             >= 1, halving chain
//   varint  payload_bytes        total size of the level payload section
//   per level:                   varint offset, varint length,
//                                varint nx,ny,nz (level extents),
//                                f32 vmin, f32 vmax,
//                                [MRCR] f32 resid_max, resid_entropy, cum_err,
//                                f32 approx_err
//   payload                      concatenated tiled (MRCT) streams, finest first
//
// Level extents are pinned to the halving chain — level l must have extents
// ceil_div(dims, 2^l) — and the level streams must tile the payload exactly
// (contiguous, non-overlapping, summing to payload_bytes), so hostile level
// counts, overlapping level records, or truncated tails all fail with a
// clean CodecError before any nested stream is touched, and never size an
// allocation from an unvalidated claim.
//
// `approx_err` is the level's fitness for adaptive LOD selection: an upper
// bound on max|prolong_trilinear(level) - finest| + codec eb, measured at
// build time. Level 0's approx_err is the codec error bound itself.

#include <span>
#include <string>
#include <vector>

#include "tiled/tiled.h"

namespace mrc::pyramid {

/// Container-header stream id of a pyramid stream.
inline constexpr std::uint32_t kPyramidMagic = 0x5043'524d;  // "MRCP"

/// Hard cap on the level chain: 2^40 exceeds any index_t extent, so deeper
/// claims are hostile by construction.
inline constexpr int kMaxLevels = 40;

struct Config {
  std::string codec = "interp";  ///< any registry name, applied per brick
  CodecTuning tuning;            ///< per-brick codec tuning
  index_t brick = tiled::kDefaultBrick;  ///< brick edge of every level
  int threads = 1;               ///< exec-pool lanes per level; 0 = hardware
  /// Level count; 0 = auto: halve until the coarsest level fits one brick.
  int levels = 0;
};

/// One record of the level table. The three residual statistics are MRCR's
/// and stay zero in a pyramid stream.
struct LevelEntry {
  std::uint64_t offset = 0;  ///< within the payload section
  std::uint64_t length = 0;  ///< bytes of this level's tiled stream
  Dim3 dims;                 ///< level extents (= ceil_div(fine, 2^level))
  float vmin = 0.0f;         ///< value range over the level's (data) samples
  float vmax = 0.0f;
  float resid_max = 0.0f;      ///< MRCR: max |residual| (coarsest: max |data|)
  float resid_entropy = 0.0f;  ///< MRCR: Shannon bits/sample over 2eb-wide bins
  float cum_err = 0.0f;        ///< MRCR: telescoped bound eb * (n_levels - level)
  float approx_err = 0.0f;     ///< LOD error bound vs the finest grid (above)
};

/// Parsed + validated level table of a pyramid or progressive stream.
struct Index {
  Dim3 dims;          ///< finest-grid extents
  double eb = 0.0;    ///< absolute codec error bound (every level)
  std::string codec;  ///< per-brick codec of level 0 (every level but MRCR's coarsest)
  std::uint32_t codec_magic = 0;
  /// Codec of the coarsest level: MRCR's data level may use another codec
  /// than its residual levels; in a pyramid stream it equals `codec`.
  std::string data_codec;
  std::uint32_t data_codec_magic = 0;
  index_t brick = 0;  ///< brick edge of level 0
  std::size_t payload_offset = 0;  ///< absolute offset of the payload section
  std::uint64_t payload_bytes = 0;
  std::vector<LevelEntry> levels;  ///< [0] = finest

  /// The sub-span of `stream` holding level `l`'s complete tiled stream.
  [[nodiscard]] std::span<const std::byte> level_stream(
      std::span<const std::byte> stream, std::size_t l) const;
};

/// Extents of level `l` of a pyramid over a `fine`-extent field.
[[nodiscard]] Dim3 level_dims(Dim3 fine, int level);

/// The auto level count: halve until the coarsest level fits in one brick
/// (always >= 1, capped at kMaxLevels).
[[nodiscard]] int auto_levels(Dim3 fine, index_t brick);

/// Max |prolong_trilinear(coarse, fine.dims()) - fine|, z-slabbed across
/// `width` lanes (0 = hardware). The LOD-error measurement shared by the
/// pyramid and progressive builders — a full finest-resolution pass per
/// level, so it gets the same parallelism as the compression itself.
[[nodiscard]] double prolong_error(const FieldF& coarse, const FieldF& fine, int width);

/// Builds the pyramid: restrict_half chain from `f`, every level brick-tiled
/// and compressed in parallel on the exec pool under the same absolute error
/// bound. Deterministic: byte-identical for any thread count.
[[nodiscard]] Bytes build(const FieldF& f, double abs_eb, const Config& cfg = {});

/// Parses and validates header + level table in O(levels) without touching
/// any nested stream (api::info's peek; also grabs level 0's codec + brick
/// via the tiled O(1) geometry peek). Throws CodecError on malformed input.
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// read_geometry plus validation of every level's nested tiled preamble
/// (magic, extents, codec and eb agreement with the level table).
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// Decodes level `level` in full (parallel across bricks; threads = 0 means
/// hardware).
[[nodiscard]] FieldF decompress_level(std::span<const std::byte> stream, int level,
                                      int threads = 1);

/// Reads `region` (in level-`level` coordinates) out of one level, decoding
/// only the intersecting bricks — bit-identical to the same window of
/// decompress_level.
[[nodiscard]] tiled::RegionRead read_region(std::span<const std::byte> stream, int level,
                                            const tiled::Box& region, int threads = 1);

namespace detail {

/// What tells the two level-chain containers' tables apart.
struct TableFormat {
  std::uint32_t magic = 0;
  const char* name = "";  ///< container-header name and error-message prefix
  /// MRCR: records carry resid_max, resid_entropy and cum_err, and the
  /// geometry pass peeks at the coarsest level for the data codec.
  bool residual = false;
};

/// Writes the container header, the level table and the level streams,
/// filling in each entry's offset and length from `streams`.
[[nodiscard]] Bytes write_table(const TableFormat& fmt, Dim3 dims, double eb,
                                std::vector<LevelEntry> entries,
                                const std::vector<Bytes>& streams);

/// Parses and validates header + level table in O(levels), touching only
/// the O(1) geometry preambles of level 0 and, for MRCR, the coarsest level.
[[nodiscard]] Index read_table(const TableFormat& fmt, std::span<const std::byte> stream);

/// read_table plus every nested preamble's agreement with the table.
[[nodiscard]] Index read_table_checked(const TableFormat& fmt,
                                       std::span<const std::byte> stream);

}  // namespace detail

}  // namespace mrc::pyramid
