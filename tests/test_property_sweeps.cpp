// Cross-cutting property sweeps: invariants that must hold over broad
// parameter grids rather than at hand-picked points.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/registry.h"
#include "grid/field_ops.h"
#include "lossless/huffman.h"
#include "lossless/quant_codec.h"
#include "merge/merge_strategies.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "postproc/bezier.h"
#include "test_util.h"

namespace mrc {
namespace {

// ---------------------------------------------------------------------------
// Interpolation coverage: every grid shape must be visited exactly once —
// verified indirectly by lossless-at-tiny-eb round trips over a dims grid.
// ---------------------------------------------------------------------------

class InterpDimsSweep : public ::testing::TestWithParam<Dim3> {};

TEST_P(InterpDimsSweep, TinyBoundActsNearLossless) {
  const Dim3 d = GetParam();
  const FieldF f = test::smooth_field(d, 10.0);
  const auto rt = round_trip(InterpCompressor{}, f, 1e-7);
  EXPECT_LE(test::max_abs_err(f, rt.reconstructed), 1e-7 * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    DimGrid, InterpDimsSweep,
    ::testing::Values(Dim3{2, 3, 4}, Dim3{4, 4, 4}, Dim3{5, 5, 5}, Dim3{8, 8, 8},
                      Dim3{9, 9, 9}, Dim3{15, 17, 16}, Dim3{16, 16, 1}, Dim3{1, 16, 16},
                      Dim3{16, 1, 16}, Dim3{3, 1, 1}, Dim3{1, 1, 2}, Dim3{23, 29, 31},
                      Dim3{64, 2, 2}, Dim3{2, 64, 2}),
    [](const auto& info) {
      return std::to_string(info.param.nx) + "x" + std::to_string(info.param.ny) + "x" +
             std::to_string(info.param.nz);
    });

// ---------------------------------------------------------------------------
// Error-bound scaling: halving the bound must not increase accuracy error,
// and must not decrease stream size, for every codec.
// ---------------------------------------------------------------------------

class CodecMonotonicity : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Compressor> make() const {
    return registry().make(registry().names().at(static_cast<std::size_t>(GetParam())));
  }
};

TEST_P(CodecMonotonicity, SizeGrowsAsBoundShrinks) {
  const auto codec = make();
  const FieldF f = test::smooth_field({24, 24, 24}, 100.0);
  // Block-adaptive codecs (SZ2's per-block predictor selection) are not
  // strictly monotone — selection flips can shave a few percent when the
  // bound tightens. Allow 10% slack; gross inversions still fail.
  std::size_t prev = 0;
  for (const double eb : {10.0, 1.0, 0.1, 0.01}) {
    const auto s = codec->compress(f, eb).size();
    if (prev > 0) {
      EXPECT_GE(static_cast<double>(s), static_cast<double>(prev) * 0.9) << "eb " << eb;
    }
    prev = s;
  }
}

TEST_P(CodecMonotonicity, MaxErrorTracksBound) {
  const auto codec = make();
  const FieldF f = test::smooth_field({24, 24, 24}, 100.0);
  double prev_err = 1e300;
  for (const double eb : {10.0, 1.0, 0.1}) {
    const auto rt = round_trip(*codec, f, eb);
    const double err = test::max_abs_err(f, rt.reconstructed);
    EXPECT_LE(err, eb);
    EXPECT_LE(err, prev_err * 1.001);
    prev_err = err;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecMonotonicity, ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return std::string("interp");
                             case 1: return std::string("lorenzo");
                             case 2: return std::string("zfpx");
                             default: return std::string("quantize");
                           }
                         });

// ---------------------------------------------------------------------------
// Quantization-code codec: exact round trip across radii and zero densities.
// ---------------------------------------------------------------------------

// gtest prints a parameter without a PrintTo overload as its raw bytes, and
// gtest_discover_tests puts that text into the ctest name. A 64-bit radius
// leaves the struct without padding, so the name is the same on every build.
struct QuantSweep {
  std::uint64_t radius;
  double zero_fraction;
};

class QuantCodecSweep : public ::testing::TestWithParam<QuantSweep> {};

TEST_P(QuantCodecSweep, ExactRoundTrip) {
  const auto radius = static_cast<std::uint32_t>(GetParam().radius);
  const double zero_fraction = GetParam().zero_fraction;
  Rng rng(radius * 13 + static_cast<std::uint64_t>(zero_fraction * 100));
  std::vector<std::uint32_t> codes;
  for (int i = 0; i < 20000; ++i) {
    if (rng.uniform() < zero_fraction)
      codes.push_back(radius);
    else
      codes.push_back(static_cast<std::uint32_t>(rng.uniform_index(2 * radius + 1)));
  }
  EXPECT_EQ(lossless::decode_quant_codes(lossless::encode_quant_codes(codes, radius),
                                         radius),
            codes);
}

INSTANTIATE_TEST_SUITE_P(RadiusByDensity, QuantCodecSweep,
                         ::testing::Values(QuantSweep{4, 0.0}, QuantSweep{4, 0.99},
                                           QuantSweep{512, 0.5}, QuantSweep{512, 0.999},
                                           QuantSweep{32768, 0.9},
                                           QuantSweep{32768, 0.0}));

// ---------------------------------------------------------------------------
// Huffman optimality-adjacent property: coded size within 15% of the
// empirical entropy bound for assorted distributions.
// ---------------------------------------------------------------------------

TEST(HuffmanProperty, NearEntropyOnGeometricDistribution) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 60000; ++i) {
    std::uint32_t s = 0;
    while (s < 30 && rng.uniform() < 0.5) ++s;
    syms.push_back(s);
  }
  std::array<double, 32> freq{};
  for (auto s : syms) ++freq[s];
  double entropy_bits = 0;
  for (double c : freq)
    if (c > 0) entropy_bits -= c * std::log2(c / static_cast<double>(syms.size()));
  const auto enc = lossless::huffman_encode(syms, 32);
  EXPECT_LT(static_cast<double>(enc.size() * 8),
            entropy_bits * 1.15 + 2048 /* header slack */);
}

// ---------------------------------------------------------------------------
// Restriction/prolongation pair: restriction after nearest-prolongation is
// the identity on the coarse grid (one-sided inverse).
// ---------------------------------------------------------------------------

TEST(GridProperty, RestrictionIsLeftInverseOfNearestProlongation) {
  const FieldF coarse = test::noise_field({8, 8, 8}, 5.0, 3);
  const FieldF fine = prolong_nearest(coarse, {16, 16, 16});
  const FieldF back = restrict_average(fine, 2);
  for (index_t i = 0; i < coarse.size(); ++i) EXPECT_FLOAT_EQ(back[i], coarse[i]);
}

TEST(GridProperty, RestrictionPreservesMean) {
  const FieldF fine = test::noise_field({16, 16, 16}, 5.0, 4);
  const FieldF coarse = restrict_average(fine, 2);
  double mf = 0, mc = 0;
  for (index_t i = 0; i < fine.size(); ++i) mf += fine[i];
  for (index_t i = 0; i < coarse.size(); ++i) mc += coarse[i];
  EXPECT_NEAR(mf / static_cast<double>(fine.size()), mc / static_cast<double>(coarse.size()), 1e-4);
}

// ---------------------------------------------------------------------------
// Trilinear prolongation: every entry point must match, bit for bit, the
// per-sample cell-centred loop it replaced, over random extents, ratio-2
// (halving-chain) and arbitrary ratios, windows at and beyond their support,
// and arbitrary z-slab splits of the LOD error.
// ---------------------------------------------------------------------------

/// Test-only reference: sample (x, y, z) of the trilinear prolongation onto an
/// fd grid, read from `window`, the coarse box at `wo` of a cd grid.
float reference_prolong(const FieldF& window, Coord3 wo, Dim3 cd, Dim3 fd, index_t x,
                        index_t y, index_t z) {
  const double rx = static_cast<double>(cd.nx) / static_cast<double>(fd.nx);
  const double ry = static_cast<double>(cd.ny) / static_cast<double>(fd.ny);
  const double rz = static_cast<double>(cd.nz) / static_cast<double>(fd.nz);
  auto clampi = [](index_t v, index_t lo, index_t hi) { return std::clamp(v, lo, hi); };
  const double gz = (static_cast<double>(z) + 0.5) * rz - 0.5;
  const auto z0 = clampi(static_cast<index_t>(std::floor(gz)), 0, cd.nz - 1);
  const auto z1 = clampi(z0 + 1, 0, cd.nz - 1);
  const double fz = std::clamp(gz - static_cast<double>(z0), 0.0, 1.0);
  const double gy = (static_cast<double>(y) + 0.5) * ry - 0.5;
  const auto y0 = clampi(static_cast<index_t>(std::floor(gy)), 0, cd.ny - 1);
  const auto y1 = clampi(y0 + 1, 0, cd.ny - 1);
  const double fy = std::clamp(gy - static_cast<double>(y0), 0.0, 1.0);
  const double gx = (static_cast<double>(x) + 0.5) * rx - 0.5;
  const auto x0 = clampi(static_cast<index_t>(std::floor(gx)), 0, cd.nx - 1);
  const auto x1 = clampi(x0 + 1, 0, cd.nx - 1);
  const double fx = std::clamp(gx - static_cast<double>(x0), 0.0, 1.0);
  auto c = [&](index_t cx, index_t cy, index_t cz) {
    return window.at(cx - wo.x, cy - wo.y, cz - wo.z);
  };
  const double c00 = c(x0, y0, z0) * (1 - fx) + c(x1, y0, z0) * fx;
  const double c10 = c(x0, y1, z0) * (1 - fx) + c(x1, y1, z0) * fx;
  const double c01 = c(x0, y0, z1) * (1 - fx) + c(x1, y0, z1) * fx;
  const double c11 = c(x0, y1, z1) * (1 - fx) + c(x1, y1, z1) * fx;
  const double c0 = c00 * (1 - fy) + c10 * fy;
  const double c1 = c01 * (1 - fy) + c11 * fy;
  return static_cast<float>(c0 * (1 - fz) + c1 * fz);
}

bool same_bits(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) ==
             0;
}

TEST(GridProperty, TrilinearProlongationMatchesPerSampleReference) {
  Rng rng(2024);
  auto extent = [&](index_t hi) { return 1 + static_cast<index_t>(rng.uniform_index(hi)); };
  for (int t = 0; t < 500; ++t) {
    Dim3 fd{extent(40), extent(40), t % 5 == 0 ? 1 : extent(40)};
    // Half the cases follow the containers' halving chain; the rest use an
    // unrelated coarse grid (non-2 ratios, including coarser "fine" axes).
    Dim3 cd = t % 2 == 0 ? blocks_for(fd, 2) : Dim3{extent(40), extent(40), extent(40)};
    if (t % 5 == 0) cd.nz = 1;
    if (t % 7 == 3) (t % 3 == 0 ? cd.nx : t % 3 == 1 ? cd.ny : cd.nz) = 1;
    const FieldF coarse = test::noise_field(cd, 50.0, static_cast<std::uint64_t>(t));
    SCOPED_TRACE(::testing::Message() << "case " << t << " coarse " << cd.nx << "x" << cd.ny
                                      << "x" << cd.nz << " fine " << fd.nx << "x" << fd.ny
                                      << "x" << fd.nz);

    FieldF ref(fd);
    for (index_t z = 0; z < fd.nz; ++z)
      for (index_t y = 0; y < fd.ny; ++y)
        for (index_t x = 0; x < fd.nx; ++x)
          ref.at(x, y, z) = reference_prolong(coarse, {}, cd, fd, x, y, z);
    ASSERT_TRUE(same_bits(prolong_trilinear(coarse, fd), ref));

    // A random fine window, read from a coarse window at or beyond its support.
    const Coord3 fo{static_cast<index_t>(rng.uniform_index(fd.nx)),
                    static_cast<index_t>(rng.uniform_index(fd.ny)),
                    static_cast<index_t>(rng.uniform_index(fd.nz))};
    const Dim3 fe{extent(fd.nx - fo.x), extent(fd.ny - fo.y), extent(fd.nz - fo.z)};
    const SupportBox need = prolong_support(cd, fd, fo, fe);
    auto grow = [&](index_t lo, index_t n, index_t limit, index_t& out_lo, index_t& out_n) {
      out_lo = lo - std::min<index_t>(lo, static_cast<index_t>(rng.uniform_index(3)));
      out_n = std::min(lo + n + static_cast<index_t>(rng.uniform_index(3)), limit) - out_lo;
    };
    Coord3 wo;
    Dim3 wd;
    grow(need.origin.x, need.extent.nx, cd.nx, wo.x, wd.nx);
    grow(need.origin.y, need.extent.ny, cd.ny, wo.y, wd.ny);
    grow(need.origin.z, need.extent.nz, cd.nz, wo.z, wd.nz);
    ASSERT_TRUE(same_bits(
        prolong_trilinear_region(extract_region(coarse, wo, wd), wo, cd, fd, fo, fe),
        extract_region(ref, fo, fe)));

    // LOD error: whole field and the max over a random slab split.
    const FieldF fine = test::noise_field(fd, 50.0, static_cast<std::uint64_t>(t) + 1000);
    double expect = 0.0;
    for (index_t i = 0; i < fd.size(); ++i)
      expect = std::max(expect, std::abs(static_cast<double>(ref[i]) -
                                         static_cast<double>(fine[i])));
    EXPECT_EQ(prolong_error_slab(coarse, fine, 0, fd.nz), expect);
    double split = 0.0;
    for (index_t z0 = 0; z0 < fd.nz;) {
      const index_t z1 = z0 + extent(fd.nz - z0);
      split = std::max(split, prolong_error_slab(coarse, fine, z0, z1));
      z0 = z1;
    }
    EXPECT_EQ(split, expect);
  }
}

// ---------------------------------------------------------------------------
// Post-process curve family: every curve respects the clamp and leaves
// non-boundary points untouched.
// ---------------------------------------------------------------------------

class CurveSweep : public ::testing::TestWithParam<postproc::CurveKind> {};

TEST_P(CurveSweep, ClampAndLocalityHold) {
  const auto curve = GetParam();
  const FieldF f = test::noise_field({16, 16, 16}, 10.0, 6);
  const double eb = 0.5, a = 0.4;
  const FieldF p = postproc::bezier_postprocess_axis(f, 4, eb, a, 0, curve);
  for (index_t z = 0; z < 16; ++z)
    for (index_t y = 0; y < 16; ++y)
      for (index_t x = 0; x < 16; ++x) {
        const double delta = std::abs(p.at(x, y, z) - f.at(x, y, z));
        EXPECT_LE(delta, a * eb * (1 + 1e-5));
        const index_t r = x % 4;
        const bool boundary = (r == 0 || r == 3) && x > 0 && x < 15;
        if (!boundary) {
          EXPECT_EQ(p.at(x, y, z), f.at(x, y, z));
        }
      }
}

INSTANTIATE_TEST_SUITE_P(Curves, CurveSweep,
                         ::testing::Values(postproc::CurveKind::bezier_quadratic,
                                           postproc::CurveKind::catmull_cubic,
                                           postproc::CurveKind::bspline),
                         [](const auto& info) {
                           switch (info.param) {
                             case postproc::CurveKind::bezier_quadratic:
                               return std::string("bezier");
                             case postproc::CurveKind::catmull_cubic:
                               return std::string("catmull");
                             default:
                               return std::string("bspline");
                           }
                         });

// ---------------------------------------------------------------------------
// SSIM sanity across distortion families: additive noise, bias, and
// contrast change all reduce SSIM, and SSIM is bounded by 1.
// ---------------------------------------------------------------------------

TEST(SsimProperty, BoundedAndSensitiveToDistortionFamilies) {
  const FieldF f = test::smooth_field({20, 20, 20}, 100.0);
  FieldF noisy = f, biased = f, stretched = f;
  Rng rng(8);
  for (index_t i = 0; i < f.size(); ++i) {
    noisy[i] += static_cast<float>(rng.normal(0, 10));
    biased[i] += 30.0f;
    stretched[i] *= 1.5f;
  }
  for (const FieldF* g : {&noisy, &biased, &stretched}) {
    const double s = metrics::ssim(f, *g);
    EXPECT_LE(s, 1.0 + 1e-12);
    EXPECT_LT(s, 0.999);
  }
}

// ---------------------------------------------------------------------------
// Merge strategies preserve multiset of values (no sample invented or lost).
// ---------------------------------------------------------------------------

TEST(MergeProperty, LinearMergePreservesValueMultiset) {
  FieldF f = test::noise_field({32, 32, 32}, 3.0, 9);
  const std::array<double, 2> fr{0.4, 0.6};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const LevelData& lev = mr.levels[0];
  const FieldF merged = gather_linear(lev, scan_unit_blocks(lev, 8), false, PadKind::linear);
  // Refinement is block-granular, so the valid cells are the blocks' samples.
  double sum_valid = 0, sum_merged = 0;
  for (index_t i = 0; i < lev.data.size(); ++i)
    if (lev.mask[i]) sum_valid += lev.data[i];
  for (index_t i = 0; i < merged.size(); ++i) sum_merged += merged[i];
  EXPECT_EQ(merged.size(), lev.valid_count());
  EXPECT_NEAR(sum_valid, sum_merged, std::abs(sum_valid) * 1e-12 + 1e-9);
}

}  // namespace
}  // namespace mrc
