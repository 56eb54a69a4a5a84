#include <gtest/gtest.h>

#include <array>

#include "merge/merge_strategies.h"
#include "merge/padding.h"
#include "merge_reference.h"
#include "roi/roi_extract.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::noise_field;
using test::smooth_field;

/// Builds a 2-level hierarchy and returns the requested level.
LevelData make_level(Dim3 fine_dims, index_t block, double fine_frac, int level) {
  const FieldF f = noise_field(fine_dims, 10.0, 77);
  const std::array<double, 2> fr{fine_frac, 1.0 - fine_frac};
  auto mr = amr::build_hierarchy(f, block, fr);
  return std::move(mr.levels[static_cast<std::size_t>(level)]);
}

/// Gathers `lev` into `kind`'s layout and scatters it into an empty level.
LevelData gather_then_scatter(const LevelData& lev, MergeKind kind) {
  const auto set = scan_unit_blocks(lev, 8);
  LevelData out;
  out.ratio = lev.ratio;
  out.data = FieldF(lev.data.dims(), 0.0f);
  out.mask = MaskField(lev.mask.dims(), 0);
  switch (kind) {
    case MergeKind::linear:
      scatter_linear(gather_linear(lev, set, false, PadKind::linear), false, set, out);
      break;
    case MergeKind::stack:
      scatter_stack(gather_stack(lev, set), set, out);
      break;
    case MergeKind::tac:
      scatter_tac(gather_tac(lev, set), set, out);
      break;
  }
  return out;
}

/// The scatter restores every valid sample bit for bit and exactly the mask.
void expect_same_level(const LevelData& got, const LevelData& want) {
  ASSERT_EQ(got.data.dims(), want.data.dims());
  for (index_t i = 0; i < want.data.size(); ++i) {
    ASSERT_EQ(got.mask[i], want.mask[i]) << i;
    if (want.mask[i]) {
      ASSERT_EQ(got.data[i], want.data[i]) << i;
    }
  }
}

TEST(UnitBlocks, ExtractCountMatchesMaskDensity) {
  const LevelData lev = make_level({32, 32, 32}, 8, 0.25, 0);
  const auto set = scan_unit_blocks(lev, 8);
  EXPECT_EQ(set.unit, 8);
  EXPECT_EQ(set.block_grid, Dim3(4, 4, 4));
  EXPECT_EQ(set.block_count(), 16);  // 25% of 64 blocks
  // The gather holds exactly the listed blocks' samples.
  EXPECT_EQ(gather_linear(lev, set, false, PadKind::linear).size(), set.block_count() * 512);
}

TEST(UnitBlocks, ScatterRestoresDataAndMask) {
  const LevelData lev = make_level({32, 32, 32}, 8, 0.5, 0);
  for (const auto kind : {MergeKind::linear, MergeKind::stack, MergeKind::tac})
    expect_same_level(gather_then_scatter(lev, kind), lev);
}

TEST(UnitBlocks, BlockCoordRoundTrip) {
  UnitBlockSet set;
  set.block_grid = {4, 5, 6};
  const Coord3 c = set.block_coord(set.block_grid.index(3, 2, 5));
  EXPECT_EQ(c, (Coord3{3, 2, 5}));
}

TEST(UnitBlocks, RejectsIndivisibleExtents) {
  LevelData lev;
  lev.ratio = 1;
  lev.data = FieldF({10, 8, 8});
  lev.mask = MaskField({10, 8, 8}, 1);
  EXPECT_THROW((void)scan_unit_blocks(lev, 8), ContractError);
}

class MergeRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(MergeRoundTrip, LinearExact) {
  const LevelData lev = make_level({32, 32, 32}, 8, GetParam(), 0);
  const auto set = scan_unit_blocks(lev, 8);
  EXPECT_EQ(gather_linear(lev, set, false, PadKind::linear).dims(),
            Dim3(8, 8, 8 * set.block_count()));
  expect_same_level(gather_then_scatter(lev, MergeKind::linear), lev);
}

TEST_P(MergeRoundTrip, StackExact) {
  const LevelData lev = make_level({32, 32, 32}, 8, GetParam(), 0);
  const auto set = scan_unit_blocks(lev, 8);
  // Near-cubic arrangement.
  EXPECT_GE(gather_stack(lev, set).size(), set.block_count() * 512);
  expect_same_level(gather_then_scatter(lev, MergeKind::stack), lev);
}

TEST_P(MergeRoundTrip, TacExact) {
  const LevelData lev = make_level({32, 32, 32}, 8, GetParam(), 0);
  const auto set = scan_unit_blocks(lev, 8);
  // Boxes must tile exactly the occupied blocks.
  index_t covered = 0;
  for (const auto& b : gather_tac(lev, set)) covered += b.extent_blocks.size();
  EXPECT_EQ(covered, set.block_count());
  expect_same_level(gather_then_scatter(lev, MergeKind::tac), lev);
}

INSTANTIATE_TEST_SUITE_P(Densities, MergeRoundTrip, ::testing::Values(0.1, 0.5, 0.9, 1.0));

TEST(MergeTac, FullyOccupiedGridIsOneBox) {
  const LevelData lev = make_level({32, 32, 32}, 8, 1.0, 0);
  const auto boxes = gather_tac(lev, scan_unit_blocks(lev, 8));
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].extent_blocks, Dim3(4, 4, 4));
}

TEST(MergeTac, SparseDataProducesManyBoxes) {
  // Sparse levels fragment into many variably-shaped boxes — the encoding
  // overhead the paper attributes to TAC on the RT dataset.
  const LevelData lev = make_level({64, 64, 64}, 8, 0.1, 0);
  EXPECT_GT(gather_tac(lev, scan_unit_blocks(lev, 8)).size(), 5u);
}

TEST(MergeStack, ArrangementIsNearCubic) {
  const LevelData lev = make_level({64, 64, 64}, 8, 0.5, 0);
  const Dim3 d = gather_stack(lev, scan_unit_blocks(lev, 8)).dims();
  const double aspect = static_cast<double>(d.max_extent()) /
                        static_cast<double>(std::min({d.nx, d.ny, d.nz}));
  EXPECT_LE(aspect, 2.5);
}

// The library's gathers against the block-payload reference
// (merge_reference.h); Sz3mrProperty.LevelDecodeMatchesStripUnmergeScatter
// checks the scatters against it.

TEST(GatherFused, LinearMatchesMergeThenPad) {
  // The in-situ single-pass gather must be bit-identical to the two-step
  // reference path (merge then pad_xy).
  const LevelData lev = make_level({32, 32, 32}, 8, 0.4, 0);
  const auto set = scan_unit_blocks(lev, 8);
  const FieldF merged = test::merge_linear(test::extract_unit_blocks(lev, 8));
  for (const auto kind : {PadKind::constant, PadKind::linear, PadKind::quadratic}) {
    const FieldF reference = pad_xy(merged, kind);
    const FieldF fused = gather_linear(lev, set, /*pad=*/true, kind);
    ASSERT_EQ(fused.dims(), reference.dims());
    for (index_t i = 0; i < fused.size(); ++i) ASSERT_FLOAT_EQ(fused[i], reference[i]);
  }
  // Unpadded variant matches plain merge.
  EXPECT_EQ(gather_linear(lev, set, false, PadKind::linear), merged);
}

TEST(GatherFused, StackMatchesMergeStack) {
  const LevelData lev = make_level({32, 32, 32}, 8, 0.4, 0);
  EXPECT_EQ(gather_stack(lev, scan_unit_blocks(lev, 8)),
            test::merge_stack(test::extract_unit_blocks(lev, 8)));
}

TEST(GatherFused, TacMatchesMergeTac) {
  const LevelData lev = make_level({64, 64, 64}, 8, 0.3, 0);
  const auto boxes = gather_tac(lev, scan_unit_blocks(lev, 8));
  const auto reference = test::merge_tac(test::extract_unit_blocks(lev, 8));
  ASSERT_EQ(boxes.size(), reference.size());
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    EXPECT_EQ(boxes[b].origin_blocks, reference[b].origin_blocks) << b;
    EXPECT_EQ(boxes[b].extent_blocks, reference[b].extent_blocks) << b;
    EXPECT_EQ(boxes[b].data, reference[b].data) << b;
  }
}

TEST(GatherFused, ScanMatchesExtractIds) {
  const LevelData lev = make_level({32, 32, 32}, 8, 0.3, 0);
  const auto scanned = scan_unit_blocks(lev, 8);
  const auto full = test::extract_unit_blocks(lev, 8);
  EXPECT_EQ(scanned.block_ids, full.set.block_ids);
  EXPECT_EQ(scanned.block_grid, full.set.block_grid);
  EXPECT_EQ(scanned.level_dims, full.set.level_dims);
}

TEST(MergeLinear, KeepsExtractionOrderAlongZ) {
  const LevelData lev = make_level({16, 16, 16}, 8, 1.0, 0);
  const FieldF merged = gather_linear(lev, scan_unit_blocks(lev, 8), false, PadKind::linear);
  // First block occupies z in [0, 8): spot check a sample.
  EXPECT_FLOAT_EQ(merged.at(3, 4, 5), lev.data.at(3, 4, 5));
}

// ---------------------------------------------------------------------------
// Padding (paper Figs. 7-8).
// ---------------------------------------------------------------------------

TEST(Padding, ShapeAndStrip) {
  const FieldF f = smooth_field({8, 8, 24});
  const FieldF p = pad_xy(f, PadKind::linear);
  EXPECT_EQ(p.dims(), Dim3(9, 9, 24));
  const FieldF s = strip_pad_xy(p);
  EXPECT_EQ(s.dims(), f.dims());
  for (index_t i = 0; i < f.size(); ++i) EXPECT_FLOAT_EQ(s[i], f[i]);
}

TEST(Padding, ConstantExtrapolation) {
  FieldF f({4, 4, 1});
  for (index_t y = 0; y < 4; ++y)
    for (index_t x = 0; x < 4; ++x) f.at(x, y, 0) = static_cast<float>(x);
  const FieldF p = pad_xy(f, PadKind::constant);
  EXPECT_FLOAT_EQ(p.at(4, 2, 0), 3.0f);  // copies last layer
}

TEST(Padding, LinearExtrapolationExactOnRamps) {
  FieldF f({4, 4, 1});
  for (index_t y = 0; y < 4; ++y)
    for (index_t x = 0; x < 4; ++x) f.at(x, y, 0) = static_cast<float>(2 * x + y);
  const FieldF p = pad_xy(f, PadKind::linear);
  EXPECT_FLOAT_EQ(p.at(4, 2, 0), 10.0f);  // 2*4 + 2
  EXPECT_FLOAT_EQ(p.at(2, 4, 0), 8.0f);   // 2*2 + 4
  EXPECT_FLOAT_EQ(p.at(4, 4, 0), 12.0f);  // corner: both extrapolations
}

TEST(Padding, QuadraticExtrapolationExactOnParabolas) {
  FieldF f({5, 4, 1});
  for (index_t y = 0; y < 4; ++y)
    for (index_t x = 0; x < 5; ++x) f.at(x, y, 0) = static_cast<float>(x * x);
  const FieldF p = pad_xy(f, PadKind::quadratic);
  EXPECT_FLOAT_EQ(p.at(5, 1, 0), 25.0f);
}

TEST(Padding, OverheadFormula) {
  EXPECT_NEAR(padding_overhead(4), 1.5625, 1e-12);  // paper: 56% for u = 4
  EXPECT_NEAR(padding_overhead(16), 1.12890625, 1e-12);
}

TEST(Padding, PadToEvenOnlyTouchesOddAxes) {
  const FieldF even = smooth_field({8, 8, 8});
  EXPECT_EQ(pad_to_even(even, PadKind::linear), even);

  FieldF f({5, 4, 3});
  for (index_t z = 0; z < 3; ++z)
    for (index_t y = 0; y < 4; ++y)
      for (index_t x = 0; x < 5; ++x)
        f.at(x, y, z) = static_cast<float>(2 * x + 3 * y + 5 * z);
  const FieldF p = pad_to_even(f, PadKind::linear);
  EXPECT_EQ(p.dims(), Dim3(6, 4, 4));
  // Original samples survive untouched; linear pad is exact on ramps,
  // including the x/z corner layer (padded x feeds the z extrapolation).
  for (index_t z = 0; z < 3; ++z)
    for (index_t y = 0; y < 4; ++y)
      for (index_t x = 0; x < 5; ++x) EXPECT_FLOAT_EQ(p.at(x, y, z), f.at(x, y, z));
  EXPECT_FLOAT_EQ(p.at(5, 2, 1), 2 * 5 + 3 * 2 + 5 * 1);
  EXPECT_FLOAT_EQ(p.at(3, 1, 3), 2 * 3 + 3 * 1 + 5 * 3);
  EXPECT_FLOAT_EQ(p.at(5, 3, 3), 2 * 5 + 3 * 3 + 5 * 3);
}

TEST(Padding, PadToEvenDegenerateExtents) {
  FieldF f({1, 1, 1}, 7.0f);
  const FieldF p = pad_to_even(f, PadKind::linear);
  EXPECT_EQ(p.dims(), Dim3(2, 2, 2));
  for (index_t i = 0; i < p.size(); ++i) EXPECT_FLOAT_EQ(p[i], 7.0f);
}

// ---------------------------------------------------------------------------
// ROI extraction (paper Fig. 4).
// ---------------------------------------------------------------------------

TEST(Roi, ExtractAdaptiveSelectsRequestedFraction) {
  const FieldF f = noise_field({64, 64, 64}, 10.0);
  const auto mr = roi::extract_adaptive(f, 16, 0.15);
  ASSERT_EQ(mr.levels.size(), 2u);
  EXPECT_NEAR(mr.levels[0].density(), 0.15, 0.02);
}

TEST(Roi, CapturesHighValueRegions) {
  // Halos = rare high peaks; range thresholding must capture them.
  FieldF f({64, 64, 64}, 1.0f);
  Rng rng(5);
  for (int h = 0; h < 30; ++h) {
    const auto x = static_cast<index_t>(rng.uniform_index(64));
    const auto y = static_cast<index_t>(rng.uniform_index(64));
    const auto z = static_cast<index_t>(rng.uniform_index(64));
    f.at(x, y, z) = 1000.0f;
  }
  const auto mr = roi::extract_adaptive(f, 8, 0.15);
  EXPECT_GT(roi::captured_fraction(mr, f, 500.0f), 0.95);
}

TEST(Roi, RejectsSmallBlocks) {
  const FieldF f = smooth_field({32, 32, 32});
  EXPECT_THROW((void)roi::extract_adaptive(f, 4, 0.5), ContractError);  // b must be > 4
}

TEST(Roi, RejectsBadFraction) {
  const FieldF f = smooth_field({32, 32, 32});
  EXPECT_THROW((void)roi::extract_adaptive(f, 8, 0.0), ContractError);
  EXPECT_THROW((void)roi::extract_adaptive(f, 8, 1.5), ContractError);
}

}  // namespace
}  // namespace mrc
