#pragma once

// Test-side reference for the crossing probability: the Monte-Carlo
// estimator the library shipped beside its closed form. It draws every
// corner's error independently and counts the draws that straddle the
// isovalue, so it shares no code with uq::crossing_probability and checks it
// from outside (ProbMc.ClosedFormMatchesMonteCarlo).

#include <algorithm>
#include <cstdint>

#include "common/require.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "grid/field.h"
#include "uncertainty/error_model.h"

namespace mrc::uq {

inline Dim3 cell_dims(Dim3 d) {
  return {std::max<index_t>(d.nx - 1, 1), std::max<index_t>(d.ny - 1, 1),
          std::max<index_t>(d.nz - 1, 1)};
}

/// Collects the up-to-8 corner values of cell (x, y, z).
inline int cell_corners(const FieldF& f, index_t x, index_t y, index_t z, double* out) {
  const Dim3 d = f.dims();
  int n = 0;
  for (index_t k = 0; k < 2; ++k)
    for (index_t j = 0; j < 2; ++j)
      for (index_t i = 0; i < 2; ++i) {
        const index_t xx = std::min(x + i, d.nx - 1);
        const index_t yy = std::min(y + j, d.ny - 1);
        const index_t zz = std::min(z + k, d.nz - 1);
        out[n++] = f.at(xx, yy, zz);
      }
  return n;
}

/// Monte-Carlo estimator drawing `n_draws` joint realizations per cell.
inline FieldD crossing_probability_mc(const FieldF& dec, double isovalue,
                                      const ErrorModel& model, int n_draws,
                                      std::uint64_t seed) {
  MRC_REQUIRE(n_draws >= 1, "need at least one draw");
  const Dim3 cd = cell_dims(dec.dims());
  FieldD prob(cd);

  // Draws are seeded per cell plane, so any split of the planes across
  // lanes yields the same bytes.
  exec::parallel_for(cd.nz, [&](index_t z) {
    Rng rng(seed ^ (0x9e37u + static_cast<std::uint64_t>(z) * 0x1000193u));
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        double corners[8];
        cell_corners(dec, x, y, z, corners);
        int crossings = 0;
        for (int t = 0; t < n_draws; ++t) {
          bool any_above = false, any_below = false;
          for (double c : corners) {
            const double v = c + rng.normal(model.mean, model.sigma);
            (v >= isovalue ? any_above : any_below) = true;
          }
          crossings += (any_above && any_below) ? 1 : 0;
        }
        prob.at(x, y, z) = static_cast<double>(crossings) / static_cast<double>(n_draws);
      }
  });
  return prob;
}

}  // namespace mrc::uq
