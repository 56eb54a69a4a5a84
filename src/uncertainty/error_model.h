#pragma once

// Gaussian model of the compression error (paper §III-C). SZ/ZFP errors are
// approximately normal at large error bounds [Lindstrom'17], so per-voxel
// uncertainty is N(mean, sigma^2) with moments estimated from the sampled
// round trips already collected for post-processing ("reusing the
// information"). The isovalue-conditioned fit restricts the estimate to
// samples whose original value lies near the isovalue, because compression
// error can depend on the data value.

#include <span>

#include "grid/field.h"

namespace mrc::uq {

struct ErrorModel {
  double mean = 0.0;
  double sigma = 0.0;
  index_t n_samples = 0;

  /// Fit from paired original/decompressed samples on `threads` exec-pool
  /// lanes (0 = hardware); fixed 64 Ki-sample chunks keep every width's bits.
  [[nodiscard]] static ErrorModel fit(std::span<const float> orig,
                                      std::span<const float> dec, int threads = 0);

  /// Isovalue-conditioned fit: uses only samples with
  /// |orig - isovalue| <= window; falls back to the global fit when fewer
  /// than `min_samples` qualify.
  [[nodiscard]] static ErrorModel fit_near_isovalue(std::span<const float> orig,
                                                    std::span<const float> dec,
                                                    double isovalue, double window,
                                                    index_t min_samples = 64,
                                                    int threads = 0);
};

}  // namespace mrc::uq
