#pragma once

// Quantize-only error-bounded codec: the LinearQuantizer with prediction 0
// on the 2*eb grid, followed by the shared entropy layer.
//
// A sample x gets code llround(x / 2eb) + radius when that bin lies inside
// the radius and its float reconstruction stays within eb; otherwise it gets
// code 0 and its exact float goes to the outlier list. There are no
// per-block flags or plane coefficients: on data with no spatial
// correlation left — MRCR's residual levels on turbulent fields, where the
// prolongation already removed the smooth part — the best predictor is
// zero, and a predictor only spends bits and time. The rows run on the
// plane kernels of compressors/simd_kernels.h with a zero plane (the
// prediction is exactly +0.0), so every ISA is bit-identical to scalar.
//
// Stream layout: the shared container header (v6, or v7 plus the shard
// count when the negotiated entropy shards are > 1), varint radius, a blob
// of quant codes, and a blob of LZSS-compressed outlier floats.

#include "compressors/compressor.h"

namespace mrc {

struct QuantizeConfig {
  std::uint32_t quant_radius = 512;  ///< bins per side; code 0 = outlier
  /// Requested entropy shards (negotiated down by the sample count; > 1
  /// writes the v7 sharded layout, 1 keeps the v6 bytes).
  std::uint32_t entropy_shards = 1;
};

class QuantizeCompressor final : public Compressor {
 public:
  /// Stream/registry id written into the container header.
  static constexpr std::uint32_t kMagic = 0x5130'5a53;  // "SZ0Q"

  explicit QuantizeCompressor(QuantizeConfig cfg = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Bytes compress(const FieldF& f, double abs_eb) const override;
  [[nodiscard]] FieldF decompress(std::span<const std::byte> stream) const override;

 private:
  QuantizeConfig cfg_;
};

}  // namespace mrc
