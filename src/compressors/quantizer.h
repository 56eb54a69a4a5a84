#pragma once

// Error-bounded linear quantizer shared by the prediction-based codecs.
// Residuals are mapped to 2*eb-wide bins; values whose bin falls outside the
// radius (or whose reconstruction misses the bound after float rounding) are
// stored exactly as outliers (code 0), the SZ "unpredictable data" path.
//
// This is the library's only scalar quantize and dequantize: the scalar
// rows in simd_kernels.cpp, interp's per-point targets and lorenzo's
// Lorenzo-predicted blocks all call it, and the AVX2 rows reproduce it bit
// for bit.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/require.h"

namespace mrc {

struct LinearQuantizer {
  double eb;
  std::uint32_t radius;

  /// Quantizes `orig` against `pred`; writes the reconstructed value to
  /// `recon` and returns the code (0 = outlier, appended to `outliers` —
  /// any push_back-able float container, e.g. std::vector or AlignedVec).
  template <typename OutlierVec>
  std::uint32_t encode(float orig, double pred, float& recon,
                       OutlierVec& outliers) const {
    const double diff = static_cast<double>(orig) - pred;
    if (std::abs(diff) < 2.0 * eb * radius) {
      const auto q = std::llround(diff / (2.0 * eb));
      if (std::llabs(q) < radius) {
        const auto cand = static_cast<float>(pred + 2.0 * eb * static_cast<double>(q));
        if (std::abs(static_cast<double>(cand) - static_cast<double>(orig)) <= eb) {
          recon = cand;
          return static_cast<std::uint32_t>(q + radius);
        }
      }
    }
    outliers.push_back(orig);
    recon = orig;
    return 0;
  }

  /// Inverse of encode(); consumes outliers in order for code 0.
  float decode(std::uint32_t code, double pred, std::span<const float> outliers,
               std::size_t& outlier_pos) const {
    if (code == 0) {
      if (outlier_pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
      return outliers[outlier_pos++];
    }
    const auto q = static_cast<std::int64_t>(code) - radius;
    return static_cast<float>(pred + 2.0 * eb * static_cast<double>(q));
  }
};

}  // namespace mrc
