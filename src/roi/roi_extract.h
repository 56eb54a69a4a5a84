#pragma once

// Compression-oriented ROI extraction (paper §III preamble, Fig. 4):
// converts uniform-resolution data into two-level "adaptive data" by keeping
// the top-x% of b^3 blocks (ranked by value range) at full resolution and
// storing the rest 2x coarser.

#include <span>

#include "grid/multires.h"

namespace mrc::roi {

/// Converts a uniform field into adaptive (2-level) multi-resolution data.
/// `roi_fraction` is the paper's x (default 0.5), `block_size` its b (2^n,
/// n > 2), on `threads` exec-pool lanes (0 = hardware; same bits at any width).
[[nodiscard]] MultiResField extract_adaptive(const FieldF& uniform, index_t block_size,
                                             double roi_fraction, int threads = 0);

/// The paper's top-x% ranking rule generalized to any per-block score: the
/// smallest score still kept when the best `fraction` of blocks are kept.
/// fraction <= 0 keeps nothing (+inf), fraction >= 1 keeps everything
/// (-inf). Ties at the threshold are kept, so the kept set may slightly
/// exceed `fraction`.
[[nodiscard]] double keep_fraction_threshold(std::span<const double> scores,
                                             double fraction);

/// The value with (about) the top `fraction` of `values` at or above it —
/// the halo-preservation bench's density-threshold convention, shared here
/// so the facade's auto halo cut cannot drift from it.
[[nodiscard]] float top_value_quantile(std::span<const float> values, double fraction);

/// Fig. 4 diagnostic: fraction of "interesting" cells (value above
/// `threshold`, e.g. over-density halos) that the ROI keeps at full
/// resolution.
[[nodiscard]] double captured_fraction(const MultiResField& adaptive, const FieldF& original,
                                       float threshold);

}  // namespace mrc::roi
