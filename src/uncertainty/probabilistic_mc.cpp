#include "uncertainty/probabilistic_mc.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numbers>
#include <vector>

#include "compressors/simd_kernels.h"
#include "exec/thread_pool.h"

namespace mrc::uq {

namespace {

using u64 = std::uint64_t;

[[gnu::always_inline]] inline u64 bits(double v) { return std::bit_cast<u64>(v); }

/// All ones where v > k, for v, k >= 0 (a NaN v counts as above). Integer
/// masks, not bools: GCC if-converts these selects under the default flags.
[[gnu::always_inline]] inline u64 above(double v, double k) {
  return 0 - ((bits(k) - bits(v)) >> 63);
}

[[gnu::always_inline]] inline double pick(u64 m, double a, double b) {
  return std::bit_cast<double>((bits(a) & m) | (bits(b) & ~m));
}

/// 0.5 * erfc(-x / sqrt2) after Cody's three rational forms for erfc, all
/// evaluated and picked by masks, with one division and an in-line exp.
[[gnu::always_inline]] inline double phi(double x) {
  constexpr double kShift = 0x1.8p52;  // adding it rounds |v| < 2^51 to an integer
  const double t = -x / std::numbers::sqrt2;  // divided, as std::erfc's argument is
  const double y = std::bit_cast<double>(bits(t) & ~(u64{1} << 63));
  const double s = y * y, s2 = s * s, s4 = s2 * s2;
  // y <= 0.46875: Phi = 0.5 - 0.5 * t * N1(s) / D1(s).
  const double n1 = (0.5 * t) * ((3.20937758913846947e03 + 3.77485237685302021e02 * s) +
                                 s2 * (1.13864154151050156e02 + 3.16112374387056560e00 * s) +
                                 s4 * 1.85777706184603153e-1);
  const double d1 = (2.84423683343917062e03 + 1.28261652607737228e03 * s) +
                    s2 * (2.44024637934444173e02 + 2.36012909523441209e01 * s) + s4;
  // y <= 4: erfc(y) = exp(-s) * N2(y) / D2(y).
  const double n2 = ((1.23033935479799725e03 + 2.05107837782607147e03 * y) +
                     s * (1.71204761263407058e03 + 8.81952221241769090e02 * y)) +
                    s2 * ((2.98635138197400131e02 + 6.61191906371416295e01 * y) +
                          s * (8.88314979438837594e00 + 5.64188496988670089e-1 * y)) +
                    s4 * 2.15311535474403846e-8;
  const double d2 = ((1.23033935480374942e03 + 3.43936767414372164e03 * y) +
                     s * (4.36261909014324716e03 + 3.29079923573345963e03 * y)) +
                    s2 * ((1.62138957456669019e03 + 5.37181101862009858e02 * y) +
                          s * (1.17693950891312499e02 + 1.57449261107098347e01 * y)) +
                    s4;
  // y > 4: erfc(y) = exp(-s) * (1/sqrt(pi) - N3(s) / (s D3(s))) / y, Cody's
  // polynomials in 1/s multiplied through by s^5.
  const double n3 = (1.63153871373020978e-2 + 3.05326634961232344e-1 * s) +
                    s2 * (3.60344899949804439e-1 + 1.25781726111229246e-1 * s) +
                    s4 * (1.60837851487422766e-2 + 6.58749161529837803e-4 * s);
  const double d3 = s * ((1.0 + 2.56852019228982242e00 * s) +
                         s2 * (1.87295284992346725e00 + 5.27905102951428412e-1 * s) +
                         s4 * (6.05183413124413191e-2 + 2.33520497626869185e-3 * s));
  const u64 r1 = ~above(y, 0.46875), r2 = ~above(y, 4.0);
  const double q = pick(r1, n1, pick(r2, n2, 5.6418958354775628695e-1 * d3 - n3)) /
                   pick(r1, d1, pick(r2, d2, y * d3));
  // 0.5 * exp(-s) = 2^(n-1) * exp(r) with r = -ysq^2 - del - n ln2: ysq is y
  // rounded to a multiple of 1/16, so ysq^2 is exact, and the reduction
  // subtracts the small del = s - ysq^2 only after the exact part.
  const double ysq = ((y * 16.0 + kShift) - kShift) * 0.0625;
  const double del = (y - ysq) * (y + ysq);
  const double kd = s * -std::numbers::log2e + kShift;
  const double nd = kd - kShift;
  const double r = ((-(ysq * ysq) - nd * 6.93147180369123816490e-01) - del) -
                   nd * 1.90821492927058770002e-10;  // ln2 split, the high part exact
  const double rr = r * r, r4 = rr * rr, r8 = r4 * r4;
  const double tail =  // (exp(r) - 1 - r) / r^2, Taylor to r^13
      ((1.0 / 2 + r * (1.0 / 6)) + rr * (1.0 / 24 + r * (1.0 / 120))) +
      r4 * ((1.0 / 720 + r * (1.0 / 5040)) + rr * (1.0 / 40320 + r * (1.0 / 362880))) +
      r8 * ((1.0 / 3628800 + r * (1.0 / 39916800)) +
            rr * (1.0 / 479001600 + r * (1.0 / 6227020800.0)));
  const double half_2n = std::bit_cast<double>((bits(kd) << 52) + (u64{1022} << 52));
  // Past Cody's XBIG = 26.543, 0.5 * erfc(y) is subnormal: 0 (NaN for a NaN x).
  const double h = pick(above(y, 26.543), pick(above(y, __builtin_inf()), y, 0.0),
                        (1.0 + (r + rr * tail)) * (half_2n * q));
  return pick(r1, 0.5 - q, pick(0 - (bits(t) >> 63), 1.0 - h, h));
}

[[gnu::always_inline]] inline void phi_row(double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = phi(v[i]);
}

#if defined(__x86_64__) || defined(__i386__)
/// The same loop in 256-bit vectors. AVX2 carries no FMA, so both bodies
/// round alike. Not target_clones: that crashes a ThreadSanitizer build at load.
__attribute__((target("avx2"))) void phi_row_avx2(double* v, std::size_t n) {
  phi_row(v, n);
}
#endif

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

double normal_cdf(double x) { return phi(x); }

void normal_cdf_row(std::span<double> v) {
#if defined(__x86_64__) || defined(__i386__)
  if (simd::active_isa() == simd::Isa::avx2) return phi_row_avx2(v.data(), v.size());
#endif
  phi_row(v.data(), v.size());
}

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
      out[i] = (isovalue - mu) / sigma;
    }
    normal_cdf_row({out, static_cast<std::size_t>(plane)});
  };

  // Each voxel's CDF is evaluated once per slab, not once per adjacent cell:
  // one contiguous z-slab of cell planes per lane, each sliding a two-plane
  // CDF buffer. Every cell multiplies its corners' CDFs in cell_corners'
  // order (x fastest, then y, then z), so the result is bit-identical to a
  // per-cell loop on normal_cdf.
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
