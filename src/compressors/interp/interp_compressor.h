#pragma once

// SZ3-class global interpolation compressor.
//
// Prediction sweeps level-by-level from the coarsest stride (2^(L-1), with
// L = ceil(log2(max extent))) down to stride 1, interpolating along x, then
// y, then z within each level. Each line endpoint (index n-1 per axis) is
// treated as an anchor predicted up front, matching the construction in
// §III-A of the paper (Fig. 7: d1 predicts d8 before the strided levels).
// Interior points use cubic interpolation where four equally spaced
// reconstructed neighbors exist, linear where two exist, and constant
// extrapolation from the left neighbor when the right neighbor falls outside
// the grid — the exact failure mode the paper's padding strategy removes.
//
// The adaptive per-level error bound implements the QoZ-style rule the paper
// adopts for multi-resolution data:
//     eb(level) = eb / min(alpha^(level-1), beta),   level 1 = finest
// with the paper's fixed alpha = 2.25, beta = 8.
//
// One stream can run on several exec-pool lanes (InterpConfig::threads)
// without moving a byte. A sweep along one axis at stride s reads only
// positions x ± s and x ± 3s, which are multiples of 2s or the n-1 anchor,
// never another target of the same sweep; so a sweep of 16 Ki targets or
// more splits into chunks of whole lines, rows or z-slabs, each starting at
// a code index known in advance. The monolithic Huffman encode splits the
// same way (lossless/quant_codec.h). Called on a pool lane — a brick of a
// tiled, pyramid, progressive or adaptive container — the codec runs on
// that one lane.

#include "compressors/compressor.h"

namespace mrc {

struct InterpConfig {
  std::uint32_t quant_radius = 512;  ///< residual bins per side; code 0 = outlier
  bool cubic = true;                 ///< cubic spline where 4 neighbors exist
  bool adaptive_eb = false;          ///< per-level error-bound tightening
  double alpha = 2.25;               ///< per-level eb decay (paper §III-A)
  double beta = 8.0;                 ///< eb decay cap (paper §III-A)
  /// Requested entropy shards per stream (negotiated down by grid size; > 1
  /// writes the v7 sharded layout, 1 keeps the frozen v6 bytes).
  std::uint32_t entropy_shards = 1;
  /// Exec-pool lanes for one stream's prediction sweeps and entropy encode
  /// (0 = hardware); used only off a pool lane. Output bytes are identical
  /// for any value, so the stream does not record it.
  int threads = 1;
};

class InterpCompressor final : public Compressor {
 public:
  /// Stream/registry id written into the container header.
  static constexpr std::uint32_t kMagic = 0x4d33'5a53;  // "SZ3M"

  explicit InterpCompressor(InterpConfig cfg = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Bytes compress(const FieldF& f, double abs_eb) const override;
  [[nodiscard]] FieldF decompress(std::span<const std::byte> stream) const override;

  [[nodiscard]] const InterpConfig& config() const { return cfg_; }

  /// Number of interior points that require constant extrapolation (no right
  /// neighbor) when compressing a grid of these extents — the quantity the
  /// paper's Figs. 7/8 count and padding eliminates. Exposed for the
  /// bench_fig8_padding experiment and tests.
  [[nodiscard]] static index_t count_extrapolated_points(Dim3 dims);

 private:
  InterpConfig cfg_;
};

}  // namespace mrc
