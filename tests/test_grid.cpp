#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "grid/field_ops.h"
#include "grid/multires.h"
#include "multires_reference.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::smooth_field;

TEST(FieldOps, RestrictAverageExact) {
  FieldF f({4, 4, 4});
  for (index_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i);
  const FieldF c = restrict_average(f, 2);
  EXPECT_EQ(c.dims(), Dim3(2, 2, 2));
  // First coarse cell averages fine cells (0,0,0),(1,0,0),(0,1,0),(1,1,0),
  // (0,0,1),(1,0,1),(0,1,1),(1,1,1) -> indices 0,1,4,5,16,17,20,21.
  const double expected = (0 + 1 + 4 + 5 + 16 + 17 + 20 + 21) / 8.0;
  EXPECT_FLOAT_EQ(c.at(0, 0, 0), static_cast<float>(expected));
}

TEST(FieldOps, RestrictRejectsIndivisible) {
  FieldF f({5, 4, 4});
  EXPECT_THROW((void)restrict_average(f, 2), ContractError);
}

TEST(FieldOps, ProlongNearestInvertsRestrictionOfConstant) {
  FieldF f({8, 8, 8}, 3.5f);
  const FieldF c = restrict_average(f, 2);
  const FieldF up = prolong_nearest(c, {8, 8, 8});
  for (index_t i = 0; i < up.size(); ++i) EXPECT_FLOAT_EQ(up[i], 3.5f);
}

TEST(FieldOps, ProlongTrilinearPreservesLinearRamp) {
  FieldF coarse({4, 4, 4});
  for (index_t z = 0; z < 4; ++z)
    for (index_t y = 0; y < 4; ++y)
      for (index_t x = 0; x < 4; ++x) coarse.at(x, y, z) = static_cast<float>(x);
  const FieldF fine = prolong_trilinear(coarse, {8, 8, 8});
  // In the interior, a linear ramp must stay linear: fine x=3 maps to coarse
  // coordinate (3+0.5)*0.5-0.5 = 1.25.
  EXPECT_NEAR(fine.at(3, 4, 4), 1.25f, 1e-5);
}

TEST(FieldOps, GradientMagnitudeExactOnRamps) {
  // |∇(2x + 3y + 6z)| = sqrt(4 + 9 + 36) = 7 everywhere, boundaries
  // included (one-sided differences are exact on linear data too).
  FieldF f({8, 8, 8});
  for (index_t z = 0; z < 8; ++z)
    for (index_t y = 0; y < 8; ++y)
      for (index_t x = 0; x < 8; ++x)
        f.at(x, y, z) = static_cast<float>(2 * x + 3 * y + 6 * z);
  const FieldF g = gradient_magnitude(f);
  ASSERT_EQ(g.dims(), f.dims());
  for (index_t i = 0; i < g.size(); ++i) EXPECT_NEAR(g[i], 7.0f, 1e-5);
}

TEST(FieldOps, GradientMagnitudeFlatAndDegenerate) {
  const FieldF flat({6, 5, 4}, 3.0f);
  const FieldF g = gradient_magnitude(flat);
  for (index_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(g[i], 0.0f);
  // A single-sample axis has no differences along it — and must not fault.
  const FieldF line = gradient_magnitude(FieldF({16, 1, 1}, 2.0f));
  for (index_t i = 0; i < line.size(); ++i) EXPECT_FLOAT_EQ(line[i], 0.0f);
  EXPECT_THROW((void)gradient_magnitude(FieldF{}), ContractError);
}

TEST(FieldOps, ExtractInsertRoundTrip) {
  FieldF f = smooth_field({12, 12, 12});
  const FieldF r = extract_region(f, {2, 3, 4}, {5, 4, 3});
  FieldF g({12, 12, 12}, 0.0f);
  insert_region(g, {2, 3, 4}, r);
  EXPECT_FLOAT_EQ(g.at(2, 3, 4), f.at(2, 3, 4));
  EXPECT_FLOAT_EQ(g.at(6, 6, 6), f.at(6, 6, 6));
  EXPECT_FLOAT_EQ(g.at(0, 0, 0), 0.0f);
}

TEST(FieldOps, ExtractOutOfRangeThrows) {
  FieldF f({4, 4, 4});
  EXPECT_THROW((void)extract_region(f, {2, 0, 0}, {4, 1, 1}), ContractError);
}

TEST(FieldOps, CentralSlice) {
  FieldF f = smooth_field({6, 7, 8});
  const FieldF s = central_slice_z(f);
  EXPECT_EQ(s.dims(), Dim3(6, 7, 1));
  EXPECT_FLOAT_EQ(s.at(3, 3, 0), f.at(3, 3, 4));
}

TEST(FieldOps, BlockValueRanges) {
  FieldF f({8, 4, 4}, 1.0f);
  f.at(1, 1, 1) = 11.0f;  // only block (0,0,0) has range 10
  const auto ranges = block_value_ranges(f, 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_DOUBLE_EQ(ranges[0], 10.0);
  EXPECT_DOUBLE_EQ(ranges[1], 0.0);
}

// ---------------------------------------------------------------------------
// AMR hierarchy construction.
// ---------------------------------------------------------------------------

TEST(Amr, TwoLevelDensitiesMatchFractions) {
  const FieldF f = test::noise_field({64, 64, 64}, 10.0);
  const std::array<double, 2> fr{0.25, 0.75};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  ASSERT_EQ(mr.levels.size(), 2u);
  EXPECT_EQ(mr.levels[0].ratio, 1);
  EXPECT_EQ(mr.levels[1].ratio, 2);
  EXPECT_NEAR(mr.levels[0].density(), 0.25, 0.02);
  EXPECT_NEAR(mr.levels[1].density(), 0.75, 0.02);
}

TEST(Amr, ThreeLevelStructure) {
  const FieldF f = test::noise_field({64, 64, 64}, 10.0);
  const std::array<double, 3> fr{0.15, 0.31, 0.54};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  ASSERT_EQ(mr.levels.size(), 3u);
  EXPECT_EQ(mr.levels[2].ratio, 4);
  EXPECT_EQ(mr.levels[2].data.dims(), Dim3(16, 16, 16));
  EXPECT_NEAR(mr.levels[0].density(), 0.15, 0.03);
}

TEST(Amr, EveryFineCellCoveredExactlyOnce) {
  const FieldF f = test::noise_field({32, 32, 32}, 5.0);
  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  // Project all masks to the fine grid; each cell must be covered once.
  for (index_t z = 0; z < 32; ++z)
    for (index_t y = 0; y < 32; ++y)
      for (index_t x = 0; x < 32; ++x) {
        int covered = 0;
        for (const auto& lev : mr.levels)
          covered += lev.mask.at(x / lev.ratio, y / lev.ratio, z / lev.ratio) ? 1 : 0;
        ASSERT_EQ(covered, 1) << "cell " << x << "," << y << "," << z;
      }
}

TEST(Amr, HighRangeBlocksGoToFineLevel) {
  // A field with activity confined to one corner: that corner must be
  // kept at level 0.
  FieldF f({32, 32, 32}, 0.0f);
  for (index_t z = 0; z < 8; ++z)
    for (index_t y = 0; y < 8; ++y)
      for (index_t x = 0; x < 8; ++x)
        f.at(x, y, z) = static_cast<float>((x + y + z) % 7);
  const std::array<double, 2> fr{0.02, 0.98};  // one block's worth
  const auto mr = amr::build_hierarchy(f, 8, fr);
  EXPECT_EQ(mr.levels[0].mask.at(0, 0, 0), 1);
  EXPECT_EQ(mr.levels[0].mask.at(31, 31, 31), 0);
}

TEST(Amr, ReconstructUniformExactOnFineRegions) {
  const FieldF f = smooth_field({32, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const FieldF rec = mr.reconstruct_uniform();
  for (index_t i = 0; i < f.size(); ++i) {
    if (mr.levels[0].mask[i]) {
      EXPECT_FLOAT_EQ(rec[i], f[i]);
    }
  }
}

TEST(Amr, ReconstructUniformCloseEverywhereOnSmoothData) {
  const FieldF f = smooth_field({32, 32, 32}, 100.0);
  const std::array<double, 2> fr{0.3, 0.7};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const FieldF rec = mr.reconstruct_uniform();
  // Coarse regions are smooth by construction, so 2x downsample + trilinear
  // upsample stays close.
  double max_err = 0;
  for (index_t i = 0; i < f.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(f[i]) - rec[i]));
  EXPECT_LT(max_err, 15.0);
}

TEST(Amr, StoredSamplesLessThanUniform) {
  const FieldF f = test::noise_field({32, 32, 32}, 3.0);
  const std::array<double, 2> fr{0.25, 0.75};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  // 25% at full res + 75% at 1/8 resolution ≈ 34% of the original samples.
  EXPECT_LT(mr.stored_samples(), f.size() / 2);
  EXPECT_GT(mr.stored_samples(), f.size() / 5);
}

TEST(Amr, RejectsBadBlockSize) {
  const FieldF f = smooth_field({32, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  EXPECT_THROW((void)amr::build_hierarchy(f, 12, fr), ContractError);  // not 2^n
  EXPECT_THROW((void)amr::build_hierarchy(f, 0, fr), ContractError);
}

TEST(Amr, RejectsIndivisibleExtents) {
  const FieldF f = smooth_field({30, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  EXPECT_THROW((void)amr::build_hierarchy(f, 8, fr), ContractError);
}

// ---------------------------------------------------------------------------
// The pooled hierarchy passes against their serial reference
// (multires_reference.h), byte for byte, at one lane, four and the hardware
// width.
// ---------------------------------------------------------------------------

template <typename T>
bool same_bytes(const Field3D<T>& a, const Field3D<T>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(T)) == 0;
}

TEST(MultiresProperty, PooledBuildAndReconstructMatchSerialReference) {
  struct Case {
    Dim3 dims;
    index_t block;
    std::vector<double> fractions;
  };
  const std::vector<Case> cases = {
      {{32, 32, 32}, 8, {0.5, 0.5}},
      {{48, 16, 32}, 16, {0.25, 0.75}},
      {{16, 40, 24}, 8, {0.1, 0.9}},
      {{64, 32, 16}, 16, {1.0, 0.0}},
      {{32, 32, 32}, 8, {0.2, 0.3, 0.5}},  // three levels: level 2 has ratio 4
      {{64, 48, 32}, 16, {0.15, 0.31, 0.54}},
      {{16, 16, 48}, 4, {0.0, 0.5, 0.5}},
      {{64, 32, 32}, 16, {0.2, 0.2, 0.3, 0.3}},  // four: levels of ratio 2 and 4 overlay
      {{24, 24, 24}, 8, {1.0}},
  };
  for (const Case& c : cases)
    for (const bool noisy : {true, false}) {
      const std::string tag = std::to_string(c.dims.nx) + "x" + std::to_string(c.dims.ny) +
                              "x" + std::to_string(c.dims.nz) + " block " +
                              std::to_string(c.block) + " levels " +
                              std::to_string(c.fractions.size()) + (noisy ? " noise" : " smooth");
      const FieldF f = noisy ? test::noise_field(c.dims, 10.0, c.dims.nx + c.block)
                             : smooth_field(c.dims);  // smooth: tied block ranges
      const MultiResField want = test::reference_build_hierarchy(f, c.block, c.fractions);
      const FieldF want_uniform = test::reference_reconstruct_uniform(want);
      for (const int threads : {1, 4, 0}) {
        const MultiResField got = amr::build_hierarchy(f, c.block, c.fractions, threads);
        ASSERT_EQ(got.levels.size(), want.levels.size()) << tag;
        for (std::size_t l = 0; l < want.levels.size(); ++l) {
          EXPECT_EQ(got.levels[l].ratio, want.levels[l].ratio) << tag;
          EXPECT_TRUE(same_bytes(got.levels[l].data, want.levels[l].data))
              << tag << " level " << l << " data, " << threads << " lanes";
          EXPECT_TRUE(same_bytes(got.levels[l].mask, want.levels[l].mask))
              << tag << " level " << l << " mask, " << threads << " lanes";
        }
        EXPECT_TRUE(same_bytes(want.reconstruct_uniform(threads), want_uniform))
            << tag << " reconstruct, " << threads << " lanes";
      }
    }
}

TEST(MultiresProperty, RestrictionMatchesSerialReference) {
  // restrict_average and restrict_half share one slab kernel; at factor 2 on
  // even extents they are the same average.
  for (const Dim3 d : {Dim3{32, 16, 64}, Dim3{48, 40, 8}, Dim3{2, 2, 2}, Dim3{7, 9, 5},
                       Dim3{33, 1, 6}, Dim3{1, 1, 1}}) {
    const FieldF f = test::noise_field(d, 3.0, static_cast<std::uint64_t>(d.nx + d.nz));
    const std::string tag = std::to_string(d.nx) + "x" + std::to_string(d.ny) + "x" +
                            std::to_string(d.nz);
    EXPECT_TRUE(same_bytes(restrict_half(f), test::reference_restrict_half(f))) << tag;
    for (const index_t factor : {1, 2, 4, 8, 16}) {
      if (d.nx % factor != 0 || d.ny % factor != 0 || d.nz % factor != 0) continue;
      const FieldF want = test::reference_restrict_average(f, factor);
      if (factor == 2) {
        EXPECT_TRUE(same_bytes(restrict_half(f), want)) << tag;
      }
      for (const int threads : {1, 4})
        EXPECT_TRUE(same_bytes(restrict_average(f, factor, threads), want))
            << tag << " factor " << factor << ", " << threads << " lanes";
    }
  }
}

TEST(MultiresProperty, ReconstructRejectsLevelsOffTheRatioChain) {
  const FieldF f = test::noise_field({32, 32, 32}, 1.0);
  const std::array<double, 2> fr{0.5, 0.5};
  MultiResField mr = amr::build_hierarchy(f, 8, fr);
  mr.fine_dims = {16, 16, 16};  // level 0 would be read past its end
  EXPECT_THROW((void)mr.reconstruct_uniform(), ContractError);
  mr = amr::build_hierarchy(f, 8, fr);
  mr.levels.push_back(mr.levels[0]);  // a third level of ratio 1
  EXPECT_THROW((void)mr.reconstruct_uniform(), ContractError);
}

}  // namespace
}  // namespace mrc
