#pragma once

// Progressive residual pyramid container: the coarsest level stored
// verbatim plus one residual stream per finer level, computed against the
// *reconstruction* of the level below —
//
//   residual_L = level_L - prolong_trilinear(recon(level_{L+1}))
//
// so decoding level L needs only the reconstructed L+1 and the small, spiky
// residual stream, which the quantizer+Huffman path compresses far better
// than re-storing the level outright (the MRCP pyramid pays ~15% over a
// flat stream for exactly that). Reconstruction is strictly top-down and
// bit-deterministic: recon(top) = decode(top), recon(L) =
// prolong(recon(L+1)) + decode(residual_L), every arithmetic step pinned so
// a windowed region read reproduces the same bits as a full decode.
//
// Error model (telescoped): each residual stream is compressed under the
// same absolute bound eb, and because residual_L is measured against the
// reconstruction (not the pristine level), the per-level decode error does
// NOT accumulate — recon(L) = level_L + delta_L with |delta_L| <= eb up to
// float rounding. The level table still records the conservative telescoped
// bound cum_err(L) = eb * (n_levels - L), the a-priori guarantee that holds
// compositionally without trusting the build-time measurement.
//
// Stream layout (container header v6 under kProgressiveMagic): the MRCP
// level table of pyramid/pyramid.h, written and parsed by the same code,
// whose records carry three more f32s between vmax and approx_err —
// resid_max (max |residual|), resid_entropy (bits/sample over 2eb-wide bins)
// and cum_err (the telescoped bound). The payload concatenates tiled (MRCT)
// residual streams, finest first; the last one is the coarsest level's data
// stream. Residual levels share one codec, the data level may use another
// (each nested preamble is self-describing). Validation is the pyramid's:
// halving-chain extents, exact payload tiling, hostile level counts rejected
// before any allocation is sized from them, and read_index cross-checks
// every nested tiled preamble.

#include <span>
#include <string>
#include <vector>

#include "pyramid/pyramid.h"
#include "tiled/tiled.h"

namespace mrc::progressive {

/// Container-header stream id of a progressive residual stream.
inline constexpr std::uint32_t kProgressiveMagic = 0x5243'524d;  // "MRCR"

/// Same hard cap as the pyramid: the halving chain machinery is shared.
inline constexpr int kMaxLevels = pyramid::kMaxLevels;

/// Level extents + auto level count follow the pyramid's halving chain.
using pyramid::auto_levels;
using pyramid::level_dims;

struct Config {
  std::string codec = "interp";  ///< coarsest (data) level, any registry name
  /// Codec of the residual levels: any registry name, or "auto". A
  /// hierarchical interpolation predictor re-learns what the prolongation
  /// already removed and gains nothing (interp residual streams come out
  /// within 0.3% of the plain pyramid). Whether any predictor pays depends
  /// on the field: on turbulent data (mini-Nyx) the residual is spatially
  /// decorrelated and "quantize" (no predictor) is 3-24% smaller than
  /// lorenzo, while on smooth fields (WarpX-like) it costs 1.4-3x lorenzo's
  /// bytes. "auto" chooses once per stream, on the coarsest residual level:
  /// "quantize" unless a 3-D Lorenzo prediction gives that level a lower
  /// zeroth-order entropy than its resid_entropy (ties go to "quantize").
  /// The choice holds for every finer level, since the reader wants one
  /// residual codec. api::Options asks for "auto"; the default stays
  /// lorenzo, which the frozen goldens pin.
  std::string resid_codec = "lorenzo";
  CodecTuning tuning;            ///< per-brick codec tuning
  index_t brick = tiled::kDefaultBrick;  ///< brick edge of every level
  int threads = 1;               ///< exec-pool lanes per level; 0 = hardware
  /// Level count; 0 = auto: halve until the coarsest level fits one brick.
  int levels = 0;
};

/// The pyramid's level table, with resid_max, resid_entropy and cum_err set.
using LevelEntry = pyramid::LevelEntry;
using Index = pyramid::Index;

/// Builds the residual pyramid: restrict_half chain from `f`, the coarsest
/// level compressed verbatim, every finer level as a residual against the
/// decoded reconstruction of the level below, all through tiled::compress
/// on the exec pool. The full-grid passes (restrict chain, residual +
/// ranges, bin entropy, reconstruction fold) run on z-slabs of a pool of
/// cfg.threads lanes. Deterministic: byte-identical for any thread count.
[[nodiscard]] Bytes build(const FieldF& f, double abs_eb, const Config& cfg = {});

/// Parses and validates header + level table in O(levels) without touching
/// any nested stream beyond O(1) geometry peeks of level 0 (residual codec +
/// brick) and the coarsest level (data codec). Throws CodecError on
/// malformed input.
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// read_geometry plus validation of every level's nested tiled preamble
/// (magic, extents, codec and eb agreement with the level table).
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// Reconstructs level `level` in full: decode the coarsest stream, then
/// prolong + residual down to `level`, each fold z-slabbed on a pool of
/// `threads` lanes. Bit-deterministic for any thread count (threads = 0
/// means hardware).
[[nodiscard]] FieldF decompress_level(std::span<const std::byte> stream, int level,
                                      int threads = 1);

/// Reconstructs `region` (in level-`level` coordinates) decoding only the
/// bricks under the region's prolongation support chain — bit-identical to
/// the same window of decompress_level.
[[nodiscard]] FieldF read_region(std::span<const std::byte> stream, int level,
                                 const tiled::Box& region, int threads = 1);

/// The prolongation-support chain of a region read: boxes[level] = region,
/// boxes[l+1] = the coarse footprint prolong_trilinear needs for boxes[l]
/// (levels below `level` are left empty). Windowed reconstruction — and the
/// serve layer's progressive read — decodes exactly these boxes.
[[nodiscard]] std::vector<tiled::Box> support_chain(const Index& idx, int level,
                                                    const tiled::Box& region);

/// One refinement step: prolong the coarse window onto `fine_box` and add
/// the residual window, accumulating in double with a single float rounding
/// per sample. Every reconstruction path — build, decompress_level,
/// read_region, serve::Dataset and the wire client's in-place refinement —
/// applies this exact expression, which is what makes them bit-identical.
[[nodiscard]] FieldF refine(const FieldF& coarse_window, const tiled::Box& coarse_box,
                            Dim3 coarse_dims, const FieldF& residual,
                            const tiled::Box& fine_box, Dim3 fine_dims);

}  // namespace mrc::progressive
