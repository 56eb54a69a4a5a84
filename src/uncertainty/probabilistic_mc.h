#pragma once

// Probabilistic marching cubes (Pöthkow et al. 2011; Athawale et al. 2021),
// applied to decompressed data as in paper §III-C / Fig. 14: each voxel's
// value is a random variable v_i + N(mean, sigma^2); a cell crosses the
// isosurface unless all eight corners fall on the same side, so
//   P(cross) = 1 - P(all above) - P(all below).
// With independent per-voxel Gaussians both terms are products of normal
// CDFs (closed form); tests check it against a Monte-Carlo estimator.
//
// The normal CDF is evaluated in-tree, a row of voxels at a time, after
// W. J. Cody's rational Chebyshev forms for erfc (Math. Comp. 23, 1969):
// the three forms (|x|/sqrt2 <= 0.46875, <= 4, > 4) are all evaluated and
// picked by bit masks, so the loop has no branch and no libm call and GCC
// vectorizes it. The row runs an AVX2 body where simd::active_isa() says
// avx2 and the same loop at the x86-64 baseline otherwise, bit for bit
// alike (neither uses FMA).

#include <cstddef>
#include <span>

#include "grid/field.h"
#include "uncertainty/error_model.h"

namespace mrc::uq {

/// Standard normal CDF Phi(x) = 0.5 * erfc(-x / sqrt2). Within 2^-52 absolute
/// and 1.2e-15 relative (where Phi >= 1e-300) of 0.5 * std::erfc(-x / sqrt2);
/// exactly 0 below x = -26.543 * sqrt2 (about -37.54), where glibc returns
/// subnormals. NaN gives NaN, +-inf give 1 and 0, +-0 gives 0.5.
[[nodiscard]] double normal_cdf(double x);

/// Replaces every x in `v` with normal_cdf(x), bit for bit.
void normal_cdf_row(std::span<double> v);

/// Per-cell crossing probability; result extents are max(n-1, 1) per axis,
/// on `threads` exec-pool lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] FieldD crossing_probability(const FieldF& dec, double isovalue,
                                          const ErrorModel& model, int threads = 0);

/// Deterministic crossing mask of a field (no uncertainty).
[[nodiscard]] Field3D<std::uint8_t> crossing_cells(const FieldF& f, double isovalue);

/// Fig. 14 bookkeeping: isosurface cells lost to compression and how many of
/// them the probability field flags (p >= p_threshold).
struct UncertaintyStats {
  index_t cells_crossed_original = 0;
  index_t cells_crossed_decompressed = 0;
  index_t cells_missed = 0;     ///< crossed in original, not in decompressed
  index_t cells_spurious = 0;   ///< crossed in decompressed, not in original
  index_t missed_recovered = 0; ///< missed cells with p >= threshold
  [[nodiscard]] double recovery_rate() const {
    return cells_missed == 0
               ? 1.0
               : static_cast<double>(missed_recovered) / static_cast<double>(cells_missed);
  }
};

[[nodiscard]] UncertaintyStats compare_isosurfaces(const FieldF& original,
                                                   const FieldF& dec, const FieldD& prob,
                                                   double isovalue, double p_threshold);

}  // namespace mrc::uq
