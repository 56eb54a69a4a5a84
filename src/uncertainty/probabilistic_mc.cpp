#include "uncertainty/probabilistic_mc.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"

namespace mrc::uq {

namespace {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

Dim3 cell_dims(Dim3 d) {
  return {std::max<index_t>(d.nx - 1, 1), std::max<index_t>(d.ny - 1, 1),
          std::max<index_t>(d.nz - 1, 1)};
}

/// Collects the up-to-8 corner values of cell (x, y, z).
int cell_corners(const FieldF& f, index_t x, index_t y, index_t z, double* out) {
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

}  // namespace

FieldD crossing_probability(const FieldF& dec, double isovalue, const ErrorModel& model,
                            int threads) {
  const Dim3 d = dec.dims();
  const Dim3 cd = cell_dims(d);
  FieldD prob(cd);
  const double sigma = std::max(model.sigma, 1e-300);
  const index_t plane = d.nx * d.ny;
  // Far-face neighbour offsets: a 1-wide axis clamps both corners onto its
  // only sample, like cell_corners does.
  const index_t dx = d.nx > 1 ? 1 : 0;
  const index_t dy = d.ny > 1 ? d.nx : 0;

  // Per-voxel value ~ N(dec + mean, sigma^2): the model's mean is the
  // expected (orig - dec) bias. Fills P(v < iso) for every voxel of plane z.
  const auto cdf_plane = [&](index_t z, double* out) {
    const float* src = dec.data() + d.index(0, 0, z);
    for (index_t i = 0; i < plane; ++i) {
      const double mu = static_cast<double>(src[i]) + model.mean;
      out[i] = normal_cdf((isovalue - mu) / sigma);
    }
  };

  // Each voxel's CDF is evaluated once per slab, not once per adjacent cell:
  // one contiguous z-slab of cell planes per lane, each sliding a two-plane
  // CDF buffer. Every cell multiplies its corners' CDFs in cell_corners'
  // order (x fastest, then y, then z), so the result is bit-identical to the
  // per-cell loop.
  const index_t slabs = exec::slab_count(cd.nz, threads);
  // The caller allocates every slab's buffer: buffers malloc'd on the lanes
  // land in the pool lanes' own glibc arenas, whose retained free memory
  // raised the insitu benchmark's peak RSS.
  std::vector<double> buf(static_cast<std::size_t>(slabs * 2 * plane));
  exec::for_slabs(cd.nz, slabs, [&](index_t s, index_t z0, index_t z1) {
    double* lo = buf.data() + s * 2 * plane;
    double* hi = lo + plane;
    cdf_plane(z0, lo);
    for (index_t z = z0; z < z1; ++z) {
      const index_t zn = std::min(z + 1, d.nz - 1);
      if (zn != z) cdf_plane(zn, hi);
      const double* up = zn != z ? hi : lo;
      for (index_t y = 0; y < cd.ny; ++y) {
        const double* p0 = lo + y * d.nx;
        const double* p1 = up + y * d.nx;
        double* out = prob.data() + cd.index(0, y, z);
        for (index_t x = 0; x < cd.nx; ++x) {
          const double corners[8] = {p0[x], p0[x + dx], p0[x + dy], p0[x + dy + dx],
                                     p1[x], p1[x + dx], p1[x + dy], p1[x + dy + dx]};
          double p_below = 1.0, p_above = 1.0;
          for (double pb : corners) {
            p_below *= pb;
            p_above *= 1.0 - pb;
          }
          out[x] = std::clamp(1.0 - p_below - p_above, 0.0, 1.0);
        }
      }
      std::swap(lo, hi);
    }
  }, threads);
  return prob;
}

FieldD crossing_probability_mc(const FieldF& dec, double isovalue, const ErrorModel& model,
                               int n_draws, std::uint64_t seed) {
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

Field3D<std::uint8_t> crossing_cells(const FieldF& f, double isovalue) {
  const Dim3 cd = cell_dims(f.dims());
  Field3D<std::uint8_t> cells(cd, 0);
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        double corners[8];
        cell_corners(f, x, y, z, corners);
        bool any_above = false, any_below = false;
        for (double c : corners) (c >= isovalue ? any_above : any_below) = true;
        cells.at(x, y, z) = (any_above && any_below) ? 1 : 0;
      }
  return cells;
}

UncertaintyStats compare_isosurfaces(const FieldF& original, const FieldF& dec,
                                     const FieldD& prob, double isovalue,
                                     double p_threshold) {
  MRC_REQUIRE(original.dims() == dec.dims(), "dimension mismatch");
  const auto co = crossing_cells(original, isovalue);
  const auto cdx = crossing_cells(dec, isovalue);
  MRC_REQUIRE(co.dims() == prob.dims(), "probability field dims mismatch");

  UncertaintyStats s;
  for (index_t i = 0; i < co.size(); ++i) {
    const bool in_orig = co[i] != 0;
    const bool in_dec = cdx[i] != 0;
    s.cells_crossed_original += in_orig ? 1 : 0;
    s.cells_crossed_decompressed += in_dec ? 1 : 0;
    if (in_orig && !in_dec) {
      ++s.cells_missed;
      if (prob[i] >= p_threshold) ++s.missed_recovered;
    } else if (!in_orig && in_dec) {
      ++s.cells_spurious;
    }
  }
  return s;
}

}  // namespace mrc::uq
