#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "api/mrc_api.h"
#include "compressors/simd_kernels.h"
#include "simdata/mini_nyx.h"
#include "uncertainty/error_model.h"
#include "uncertainty/marching_cubes.h"
#include "uncertainty/probabilistic_mc.h"
#include "test_util.h"
#include "uq_reference.h"

namespace mrc::uq {
namespace {

TEST(ErrorModel, FitRecoversMoments) {
  Rng rng(12);
  std::vector<float> orig, dec;
  const double mu = 0.3, sigma = 0.8;
  for (int i = 0; i < 50000; ++i) {
    const float o = static_cast<float>(rng.uniform(0.0, 100.0));
    orig.push_back(o);
    dec.push_back(o - static_cast<float>(rng.normal(mu, sigma)));
  }
  const auto m = ErrorModel::fit(orig, dec);
  EXPECT_NEAR(m.mean, mu, 0.02);
  EXPECT_NEAR(m.sigma, sigma, 0.02);
}

// The chunked fit's mean and sigma are no farther from an extended-precision
// sum than one running double sum over every sample (the fit before it ran
// on chunks), on an insitu benchmark timestep: mini-Nyx after one step,
// compress_adaptive and restore at absolute eb 2.5e8.
TEST(ErrorModel, ChunkedFitIsNoFartherFromExactThanOneRunningSum) {
  if (std::numeric_limits<long double>::digits <= std::numeric_limits<double>::digits)
    GTEST_SKIP() << "long double is no wider than double here";
  for (const std::uint64_t seed : {1u, 9001u}) {
    sim::MiniNyx::Params p;
    p.dims = {64, 64, 64};
    p.seed = seed;
    sim::MiniNyx nyx(p);
    nyx.step();
    const FieldF& f = nyx.density();
    api::Options opt;
    opt.eb = 2.5e8;
    opt.eb_mode = api::EbMode::absolute;
    const FieldF dec = api::restore(api::compress_adaptive(f, opt));

    long double ls = 0, ls2 = 0;
    double s = 0, s2 = 0;
    for (index_t i = 0; i < f.size(); ++i) {
      const double e = static_cast<double>(f[i]) - static_cast<double>(dec[i]);
      ls += e;
      ls2 += static_cast<long double>(e) * e;
      s += e;
      s2 += e * e;
    }
    const auto n = static_cast<double>(f.size());
    const long double ref_mean = ls / n;
    const long double ref_sigma = std::sqrt(ls2 / n - ref_mean * ref_mean);
    const double serial_mean = s / n;
    const double serial_sigma = std::sqrt(std::max(0.0, s2 / n - serial_mean * serial_mean));

    const ErrorModel m = ErrorModel::fit(f.span(), dec.span());
    const auto dist = [](double v, long double ref) { return std::fabs(v - ref); };
    EXPECT_LE(dist(m.mean, ref_mean), dist(serial_mean, ref_mean)) << "seed " << seed;
    EXPECT_LE(dist(m.sigma, ref_sigma), dist(serial_sigma, ref_sigma)) << "seed " << seed;
  }
}

TEST(ErrorModel, IsovalueConditioningSelectsLocalErrors) {
  // Error depends on value: tiny below 50, large above.
  std::vector<float> orig, dec;
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const float o = static_cast<float>(rng.uniform(0.0, 100.0));
    const double s = o < 50.0 ? 0.01 : 2.0;
    orig.push_back(o);
    dec.push_back(o + static_cast<float>(rng.normal(0.0, s)));
  }
  const auto low = ErrorModel::fit_near_isovalue(orig, dec, 25.0, 10.0);
  const auto high = ErrorModel::fit_near_isovalue(orig, dec, 75.0, 10.0);
  EXPECT_LT(low.sigma, 0.1);
  EXPECT_GT(high.sigma, 1.0);
}

TEST(ErrorModel, FallsBackWhenWindowEmpty) {
  std::vector<float> orig(100, 1.0f), dec(100, 1.5f);
  const auto m = ErrorModel::fit_near_isovalue(orig, dec, 1000.0, 0.5);
  EXPECT_EQ(m.n_samples, 100);  // global fallback
  EXPECT_NEAR(m.mean, -0.5, 1e-6);
}

TEST(ProbMc, DeterministicCellWellAwayFromIso) {
  FieldF f({4, 4, 4}, 10.0f);
  ErrorModel m{0.0, 0.01, 1000};
  const FieldD p = crossing_probability(f, 0.0, m);
  for (index_t i = 0; i < p.size(); ++i) EXPECT_LT(p[i], 1e-10);
}

TEST(ProbMc, CellStraddlingIsoHasProbabilityOne) {
  FieldF f({2, 2, 2});
  for (index_t i = 0; i < 8; ++i) f[i] = i < 4 ? -10.0f : 10.0f;
  ErrorModel m{0.0, 0.1, 1000};
  const FieldD p = crossing_probability(f, 0.0, m);
  EXPECT_GT(p.at(0, 0, 0), 0.999);
}

TEST(ProbMc, LargeSigmaPushesProbabilityTowardUniform) {
  FieldF f({2, 2, 2}, 5.0f);
  ErrorModel tight{0.0, 0.01, 1000};
  ErrorModel wide{0.0, 100.0, 1000};
  const double p_tight = crossing_probability(f, 0.0, tight).at(0, 0, 0);
  const double p_wide = crossing_probability(f, 0.0, wide).at(0, 0, 0);
  EXPECT_LT(p_tight, 1e-10);
  EXPECT_GT(p_wide, 0.3);
}

TEST(ProbMc, ClosedFormMatchesMonteCarlo) {
  const FieldF f = test::smooth_field({8, 8, 8}, 10.0);
  ErrorModel m{0.1, 2.0, 1000};
  const FieldD exact = crossing_probability(f, 0.0, m);
  const FieldD mc = crossing_probability_mc(f, 0.0, m, 4000, 5);
  double max_diff = 0.0;
  for (index_t i = 0; i < exact.size(); ++i)
    max_diff = std::max(max_diff, std::abs(exact[i] - mc[i]));
  EXPECT_LT(max_diff, 0.05);  // ~4σ of the MC estimator at n=4000
}

TEST(ProbMc, MeanShiftMatters) {
  // Corners at -1.5 and -0.5: without bias the cell sits fully below the
  // isovalue; a +1 error-model bias moves the upper corners across it.
  FieldF f({2, 2, 2});
  for (index_t i = 0; i < 8; ++i) f[i] = i < 4 ? -1.5f : -0.5f;
  ErrorModel no_bias{0.0, 0.1, 1000};
  ErrorModel bias{1.0, 0.1, 1000};
  EXPECT_LT(crossing_probability(f, 0.0, no_bias).at(0, 0, 0), 0.05);
  EXPECT_GT(crossing_probability(f, 0.0, bias).at(0, 0, 0), 0.9);
}

TEST(ProbMc, CompareIsosurfacesCountsMissedCells) {
  // Original has a thin feature; "decompression" flattens it out.
  FieldF orig({8, 8, 8}, 0.0f);
  for (index_t y = 0; y < 8; ++y)
    for (index_t x = 0; x < 8; ++x) orig.at(x, y, 4) = 10.0f;  // sheet above iso
  FieldF dec({8, 8, 8}, 0.0f);  // feature gone
  ErrorModel m{0.0, 6.0, 1000};
  const FieldD prob = crossing_probability(dec, 5.0, m);
  const auto stats = compare_isosurfaces(orig, dec, prob, 5.0, 0.2);
  EXPECT_GT(stats.cells_crossed_original, 0);
  EXPECT_EQ(stats.cells_crossed_decompressed, 0);
  EXPECT_EQ(stats.cells_missed, stats.cells_crossed_original);
  // With sigma comparable to the lost amplitude, the probability field must
  // flag (recover) the missing region.
  EXPECT_GT(stats.recovery_rate(), 0.9);
}

/// Test-only reference: the per-cell closed form crossing_probability
/// replaced. Every cell reads its 8 corners (x fastest, then y, then z, far
/// faces clamped) and evaluates one normal CDF per corner with `cdf`.
FieldD reference_crossing_probability(const FieldF& f, double isovalue,
                                      const ErrorModel& model, double (*cdf)(double)) {
  const Dim3 d = f.dims();
  const Dim3 cd{std::max<index_t>(d.nx - 1, 1), std::max<index_t>(d.ny - 1, 1),
                std::max<index_t>(d.nz - 1, 1)};
  FieldD prob(cd);
  const double sigma = std::max(model.sigma, 1e-300);
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        double p_below = 1.0, p_above = 1.0;
        for (index_t k = 0; k < 2; ++k)
          for (index_t j = 0; j < 2; ++j)
            for (index_t i = 0; i < 2; ++i) {
              const double c = f.at(std::min(x + i, d.nx - 1), std::min(y + j, d.ny - 1),
                                    std::min(z + k, d.nz - 1));
              const double mu = c + model.mean;
              const double pb = cdf((isovalue - mu) / sigma);
              p_below *= pb;
              p_above *= 1.0 - pb;
            }
        prob.at(x, y, z) = std::clamp(1.0 - p_below - p_above, 0.0, 1.0);
      }
  return prob;
}

double erfc_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

/// Calls check(f, iso, model) on 240 cases: random extents (1-wide axes,
/// primes, and deep z so several slabs run at once), sigma = 0 (the 1e-300
/// floor), biased models, and isovalues both inside the value range (some
/// exactly on a voxel) and outside it.
template <typename Check>
void for_each_crossing_case(Check check) {
  Rng rng(1515);
  constexpr index_t kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31};
  auto extent = [&](int t, int axis) -> index_t {
    if ((t + axis) % 6 == 0) return 1;
    if ((t + axis) % 3 == 1) return kPrimes[rng.uniform_index(std::size(kPrimes))];
    return 1 + static_cast<index_t>(rng.uniform_index(24));
  };
  constexpr double kSigmas[] = {0.0, 1e-3, 0.05, 0.5, 3.0};
  constexpr double kMeans[] = {0.0, 0.3, -0.7};
  for (int t = 0; t < 240; ++t) {
    Dim3 d{extent(t, 0), extent(t, 1), extent(t, 2)};
    if (t % 4 == 0) d.nz = 33 + static_cast<index_t>(rng.uniform_index(32));
    const FieldF f = test::noise_field(d, 2.0, static_cast<std::uint64_t>(t));
    const ErrorModel m{kMeans[t % 3], kSigmas[(t / 3) % 5], 1000};
    const auto [lo, hi] = f.min_max();
    double iso = rng.uniform(lo, hi);
    if (t % 5 == 1) iso = f[static_cast<index_t>(rng.uniform_index(f.size()))] + m.mean;
    if (t % 7 == 2) iso = t % 2 == 0 ? hi + 1.0 + m.mean : lo - 1.0 + m.mean;
    SCOPED_TRACE(::testing::Message() << "case " << t << " dims " << d.nx << "x" << d.ny
                                      << "x" << d.nz << " sigma " << m.sigma << " mean "
                                      << m.mean << " iso " << iso);
    check(f, iso, m);
  }
}

// The slab loop, its two-plane CDF buffer and the vectorized CDF row give
// the per-cell loop's bytes when that loop calls the library's scalar CDF.
TEST(ProbMc, MatchesPerCellReferenceBitForBit) {
  for_each_crossing_case([](const FieldF& f, double iso, const ErrorModel& m) {
    const FieldD ref = reference_crossing_probability(f, iso, m, normal_cdf);
    const FieldD got = crossing_probability(f, iso, m);
    ASSERT_EQ(got.dims(), ref.dims());
    ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                          static_cast<std::size_t>(ref.size()) * sizeof(double)),
              0);
  });
}

// Accuracy oracle: the same per-cell loop on std::erfc. The in-tree CDF moves
// a probability by a few ulps at most.
TEST(ProbMc, StaysWithin1e14OfStdErfcPerCellReference) {
  for_each_crossing_case([](const FieldF& f, double iso, const ErrorModel& m) {
    const FieldD ref = reference_crossing_probability(f, iso, m, erfc_cdf);
    const FieldD got = crossing_probability(f, iso, m);
    ASSERT_EQ(got.dims(), ref.dims());
    for (index_t i = 0; i < ref.size(); ++i)
      ASSERT_LE(std::fabs(got[i] - ref[i]), 1e-14) << "cell " << i;
  });
}

// The in-tree CDF against 0.5 * std::erfc(-x / sqrt2) over a dense sweep of
// [-40, 40]: within 2^-51 absolute everywhere and 2e-15 relative wherever
// Phi >= 1e-300, and symmetric to 2^-51. Below x = -37.54 it returns 0 where
// glibc returns subnormals.
TEST(ProbMc, NormalCdfTracksErfc) {
  constexpr std::size_t kPoints = 10'000'001;
  std::vector<double> x(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i)
    x[i] = -40.0 + 80.0 * static_cast<double>(i) / static_cast<double>(kPoints - 1);
  std::vector<double> phi = x;
  normal_cdf_row(phi);
  const double abs_tol = std::ldexp(1.0, -51);
  double max_abs = 0.0, max_rel = 0.0, max_sym = 0.0;
  std::size_t nonzero_past_cutoff = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double ref = erfc_cdf(x[i]);
    const double d = std::fabs(phi[i] - ref);
    max_abs = std::max(max_abs, d);
    if (ref >= 1e-300) max_rel = std::max(max_rel, d / ref);
    max_sym = std::max(max_sym, std::fabs(phi[i] + normal_cdf(-x[i]) - 1.0));
    nonzero_past_cutoff += x[i] < -37.54 && phi[i] != 0.0 ? 1 : 0;
  }
  EXPECT_LE(max_abs, abs_tol);
  EXPECT_LE(max_rel, 2e-15);
  EXPECT_LE(max_sym, abs_tol);
  EXPECT_EQ(nonzero_past_cutoff, 0u);
  EXPECT_GT(normal_cdf(-37.5), 0.0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(normal_cdf(nan)));
  EXPECT_TRUE(std::isnan(normal_cdf(-nan)));
  EXPECT_EQ(normal_cdf(kInf), 1.0);
  EXPECT_EQ(normal_cdf(-kInf), 0.0);
  EXPECT_EQ(normal_cdf(0.0), 0.5);
  EXPECT_EQ(normal_cdf(-0.0), 0.5);
  EXPECT_EQ(normal_cdf(std::numeric_limits<double>::denorm_min()), 0.5);
  // At the sigma floor every offset from the isovalue is a huge argument.
  for (const double gap : {1e-290, 1e-200, 1e-20, 1.0, 1e300}) {
    EXPECT_EQ(normal_cdf(gap / 1e-300), 1.0) << gap;
    EXPECT_EQ(normal_cdf(-gap / 1e-300), 0.0) << gap;
  }
}

// The AVX2 row, the row pinned to the baseline body and one call per element
// agree bit for bit at every row length up to 67 (vector bodies and their
// remainders), and so does crossing_probability under either body.
TEST(ProbMc, NormalCdfRowMatchesScalarBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Signed zeros, the forms' boundaries, both sides of the cutoff, non-finites.
  constexpr double kSpecial[] = {0.0,   -0.0, 0.46875 * std::numbers::sqrt2,
                                 -4.0 * std::numbers::sqrt2, -37.5, -38.0, 37.6,
                                 kInf,  -kInf, std::numeric_limits<double>::quiet_NaN()};
  Rng rng(27);
  const simd::Isa prev = simd::active_isa();
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = i % 5 == 4 ? kSpecial[rng.uniform_index(std::size(kSpecial))]
                        : rng.normal(0.0, i % 2 == 0 ? 2.0 : 12.0);
    std::vector<double> fast = x, base = x, one(n);
    simd::force_isa(simd::best_isa());
    normal_cdf_row(fast);
    simd::force_isa(simd::Isa::scalar);
    normal_cdf_row(base);
    for (std::size_t i = 0; i < n; ++i) one[i] = normal_cdf(x[i]);
    EXPECT_EQ(std::memcmp(fast.data(), base.data(), n * sizeof(double)), 0) << "n " << n;
    EXPECT_EQ(std::memcmp(fast.data(), one.data(), n * sizeof(double)), 0) << "n " << n;
  }
  const FieldF f = test::noise_field({37, 29, 11}, 2.0, 8);
  const ErrorModel m{0.1, 0.4, 1000};
  simd::force_isa(simd::best_isa());
  const FieldD fast = crossing_probability(f, 0.3, m);
  simd::force_isa(simd::Isa::scalar);
  const FieldD base = crossing_probability(f, 0.3, m);
  simd::force_isa(prev);
  EXPECT_EQ(std::memcmp(fast.data(), base.data(),
                        static_cast<std::size_t>(fast.size()) * sizeof(double)),
            0);
}

// A NaN voxel makes every cell that has it as a corner NaN and no other
// cell; +-inf voxels give finite probabilities (CDF exactly 0 or 1).
TEST(ProbMc, NanVoxelsPoisonOnlyTheirCells) {
  const Dim3 d{9, 7, 6};
  FieldF f = test::noise_field(d, 2.0, 31);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  f.at(0, 0, 0) = nan;
  f.at(4, 3, 2) = nan;
  f.at(8, 6, 5) = nan;
  f.at(2, 5, 4) = inf;
  f.at(6, 1, 1) = -inf;
  f.at(7, 1, 1) = inf;
  const FieldD p = crossing_probability(f, 0.2, ErrorModel{0.1, 0.5, 1000});
  const Dim3 cd = p.dims();
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        bool touches_nan = false;
        for (index_t k = 0; k < 2; ++k)
          for (index_t j = 0; j < 2; ++j)
            for (index_t i = 0; i < 2; ++i)
              touches_nan = touches_nan || std::isnan(f.at(x + i, y + j, z + k));
        EXPECT_EQ(std::isnan(p.at(x, y, z)), touches_nan) << x << "," << y << "," << z;
      }
}

// ---------------------------------------------------------------------------
// Marching cubes.
// ---------------------------------------------------------------------------

FieldF sphere_field(Dim3 d, double r) {
  FieldF f(d);
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0, cz = (d.nz - 1) / 2.0;
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(
            std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy) + (z - cz) * (z - cz)) - r);
  return f;
}

double mesh_area(const TriMesh& m) {
  double area = 0.0;
  for (const auto& t : m.triangles) {
    const auto& a = m.vertices[t[0]];
    const auto& b = m.vertices[t[1]];
    const auto& c = m.vertices[t[2]];
    const double ux = b[0] - a[0], uy = b[1] - a[1], uz = b[2] - a[2];
    const double vx = c[0] - a[0], vy = c[1] - a[1], vz = c[2] - a[2];
    const double cxp = uy * vz - uz * vy;
    const double cyp = uz * vx - ux * vz;
    const double czp = ux * vy - uy * vx;
    area += 0.5 * std::sqrt(cxp * cxp + cyp * cyp + czp * czp);
  }
  return area;
}

TEST(MarchingCubes, EmptyWhenNoCrossing) {
  FieldF f({8, 8, 8}, 1.0f);
  const auto mesh = marching_cubes(f, 5.0);
  EXPECT_EQ(mesh.triangle_count(), 0u);
}

TEST(MarchingCubes, SphereAreaMatchesAnalytic) {
  const double r = 10.0;
  const auto mesh = marching_cubes(sphere_field({32, 32, 32}, r), 0.0);
  EXPECT_GT(mesh.triangle_count(), 500u);
  const double analytic = 4.0 * std::numbers::pi * r * r;
  EXPECT_NEAR(mesh_area(mesh), analytic, analytic * 0.05);
}

TEST(MarchingCubes, PlaneAreaMatchesCrossSection) {
  // f = z - 7.5 -> plane through a 16^3 grid: area = 15 x 15.
  FieldF f({16, 16, 16});
  for (index_t z = 0; z < 16; ++z)
    for (index_t y = 0; y < 16; ++y)
      for (index_t x = 0; x < 16; ++x) f.at(x, y, z) = static_cast<float>(z) - 7.5f;
  const auto mesh = marching_cubes(f, 0.0);
  EXPECT_NEAR(mesh_area(mesh), 225.0, 1.0);
}

TEST(MarchingCubes, VerticesLieOnIsosurface) {
  const auto f = sphere_field({24, 24, 24}, 8.0);
  const auto mesh = marching_cubes(f, 0.0);
  const double c = 11.5;
  for (const auto& v : mesh.vertices) {
    const double r = std::sqrt((v[0] - c) * (v[0] - c) + (v[1] - c) * (v[1] - c) +
                               (v[2] - c) * (v[2] - c));
    EXPECT_NEAR(r, 8.0, 0.35);  // linear interpolation accuracy on unit cells
  }
}

TEST(MarchingCubes, SharedVerticesAreDeduplicated) {
  const auto mesh = marching_cubes(sphere_field({16, 16, 16}, 5.0), 0.0);
  // A closed triangulated surface has E ≈ 1.5 T and V ≈ T/2 + 2 (Euler);
  // without dedup V would be 3T.
  EXPECT_LT(mesh.vertex_count(), mesh.triangle_count());
}

TEST(MarchingCubes, DegenerateGridsReturnEmpty) {
  FieldF f({1, 8, 8}, 0.0f);
  EXPECT_EQ(marching_cubes(f, 0.5).triangle_count(), 0u);
}

TEST(CrossingCells, MatchesMarchingCubesOccupancy) {
  const auto f = sphere_field({16, 16, 16}, 5.0);
  const auto cells = crossing_cells(f, 0.0);
  index_t n_crossed = 0;
  for (index_t i = 0; i < cells.size(); ++i) n_crossed += cells[i];
  EXPECT_GT(n_crossed, 0);
  // Each crossed cell emits at least one triangle.
  const auto mesh = marching_cubes(f, 0.0);
  EXPECT_GE(mesh.triangle_count(), static_cast<std::size_t>(n_crossed));
}

}  // namespace
}  // namespace mrc::uq
