#pragma once

// Probabilistic marching cubes (Pöthkow et al. 2011; Athawale et al. 2021),
// applied to decompressed data as in paper §III-C / Fig. 14: each voxel's
// value is a random variable v_i + N(mean, sigma^2); a cell crosses the
// isosurface unless all eight corners fall on the same side, so
//   P(cross) = 1 - P(all above) - P(all below).
// With independent per-voxel Gaussians both terms are products of normal
// CDFs (closed form). A Monte-Carlo estimator is provided for validation
// and for correlated extensions.

#include "grid/field.h"
#include "uncertainty/error_model.h"

namespace mrc::uq {

/// Per-cell crossing probability; result extents are max(n-1, 1) per axis,
/// on `threads` exec-pool lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] FieldD crossing_probability(const FieldF& dec, double isovalue,
                                          const ErrorModel& model, int threads = 0);

/// Monte-Carlo estimator drawing `n_draws` joint realizations per cell.
[[nodiscard]] FieldD crossing_probability_mc(const FieldF& dec, double isovalue,
                                             const ErrorModel& model, int n_draws,
                                             std::uint64_t seed);

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
