#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "simdata/generators.h"
#include "simdata/mini_nyx.h"
#include "simdata/mini_warpx.h"

namespace mrc::sim {
namespace {

TEST(Generators, GrfIsDeterministic) {
  const FieldF a = gaussian_random_field({16, 16, 16}, 3.0, 42);
  const FieldF b = gaussian_random_field({16, 16, 16}, 3.0, 42);
  const FieldF c = gaussian_random_field({16, 16, 16}, 3.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Generators, GrfIsNormalized) {
  const FieldF g = gaussian_random_field({32, 32, 32}, 2.5, 1);
  double mean = 0, var = 0;
  for (index_t i = 0; i < g.size(); ++i) mean += g[i];
  mean /= static_cast<double>(g.size());
  for (index_t i = 0; i < g.size(); ++i) var += (g[i] - mean) * (g[i] - mean);
  var /= static_cast<double>(g.size());
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(Generators, NyxIsHeavyTailedAndPositive) {
  const FieldF rho = nyx_density({32, 32, 32}, 2);
  double mean = 0;
  float peak = 0;
  for (index_t i = 0; i < rho.size(); ++i) {
    ASSERT_GT(rho[i], 0.0f);
    mean += rho[i];
    peak = std::max(peak, rho[i]);
  }
  mean /= static_cast<double>(rho.size());
  EXPECT_NEAR(mean, 1e9, 1e9 * 0.01);
  EXPECT_GT(peak, 5.0 * mean);  // halos: rare strong over-densities
}

TEST(Generators, WarpxHasLocalizedPacket) {
  const FieldF ez = warpx_ez({32, 32, 256}, 3);
  // Energy concentrated near z0 = 0.65*nz; compare packet band vs far field.
  auto band_energy = [&](index_t z_lo, index_t z_hi) {
    double e = 0;
    for (index_t z = z_lo; z < z_hi; ++z)
      for (index_t y = 0; y < 32; ++y)
        for (index_t x = 0; x < 32; ++x) e += static_cast<double>(ez.at(x, y, z)) * ez.at(x, y, z);
    return e;
  };
  EXPECT_GT(band_energy(150, 190), 20.0 * band_energy(0, 40));
}

TEST(Generators, RayleighTaylorHasTwoPhases) {
  const FieldF rho = rayleigh_taylor({32, 32, 64}, 4);
  // Bottom is light (~1), top is heavy (~3).
  EXPECT_LT(rho.at(16, 16, 2), 1.7f);
  EXPECT_GT(rho.at(16, 16, 61), 2.3f);
}

TEST(Generators, HurricaneHasCalmFarFieldAndStrongCore) {
  const FieldF w = hurricane_field({64, 64, 16}, 5);
  float corner = w.at(1, 1, 4);
  float core_max = 0;
  for (index_t y = 24; y < 40; ++y)
    for (index_t x = 24; x < 40; ++x) core_max = std::max(core_max, w.at(x, y, 4));
  EXPECT_LT(corner, 0.2f * core_max);
  EXPECT_GT(core_max, 10.0f);
}

TEST(Generators, S3dTemperatureBracketsPhysicalRange) {
  const FieldF t = s3d_flame({32, 32, 32}, 6);
  const auto [lo, hi] = t.min_max();
  EXPECT_GE(lo, 299.0f);
  EXPECT_LE(hi, 2101.0f);
  EXPECT_GT(hi - lo, 1000.0f);  // burnt and unburnt regions both present
}

TEST(MiniNyx, StepsGrowStructure) {
  MiniNyx::Params p;
  p.dims = {32, 32, 32};
  MiniNyx sim(p);
  const double r0 = sim.density().value_range();
  sim.step();
  sim.step();
  EXPECT_EQ(sim.current_step(), 2);
  // Growth amplifies contrast.
  EXPECT_GT(sim.density().value_range(), r0);
}

TEST(MiniNyx, HierarchyMatchesConfiguredDensity) {
  MiniNyx::Params p;
  p.dims = {64, 64, 64};
  p.block_size = 16;
  p.fine_fraction = 0.18;
  MiniNyx sim(p);
  const auto mr = sim.hierarchy();
  ASSERT_EQ(mr.levels.size(), 2u);
  EXPECT_NEAR(mr.levels[0].density(), 0.18, 0.03);
}

TEST(MiniWarpX, WavePropagatesFromSource) {
  MiniWarpX::Params p;
  p.dims = {16, 16, 128};
  MiniWarpX sim(p);
  for (int i = 0; i < 40; ++i) sim.step();
  // Field amplitude near the source region is nonzero.
  double energy = 0;
  const auto& ez = sim.ez();
  for (index_t z = 0; z < 40; ++z)
    for (index_t y = 0; y < 16; ++y)
      for (index_t x = 0; x < 16; ++x) energy += std::abs(ez.at(x, y, z));
  EXPECT_GT(energy, 0.0);
  // And the far end is still quiet (finite propagation speed).
  double far = 0;
  for (index_t y = 0; y < 16; ++y)
    for (index_t x = 0; x < 16; ++x) far += std::abs(ez.at(x, y, 120));
  EXPECT_LT(far, energy * 1e-3);
}

TEST(MiniWarpX, RejectsUnstableCourant) {
  MiniWarpX::Params p;
  p.courant = 0.9;
  EXPECT_THROW(MiniWarpX{p}, ContractError);
}

TEST(MiniWarpX, RejectsGridsTooThinForTheSourcePlane) {
  // The source feeds plane z = 4, which must be an interior plane the
  // stencil updates; on a thinner grid it is a boundary plane or past the
  // end of the field.
  MiniWarpX::Params p;
  for (const index_t nz : {index_t{4}, index_t{5}}) {
    p.dims = {16, 16, nz};
    EXPECT_THROW(MiniWarpX{p}, ContractError) << nz;
  }
  p.dims = {16, 16, 6};
  MiniWarpX sim(p);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.current_step(), 2);
  // Plane 4 carries the driven source; the boundary planes stay at zero.
  EXPECT_NE(sim.ez().at(8, 8, 4), 0.0f);
  for (const index_t z : {index_t{0}, index_t{5}})
    for (index_t y = 0; y < 16; ++y)
      for (index_t x = 0; x < 16; ++x) ASSERT_EQ(sim.ez().at(x, y, z), 0.0f) << z;
}

}  // namespace
}  // namespace mrc::sim
