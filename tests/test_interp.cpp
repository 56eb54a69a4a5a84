#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "compressors/interp/interp_compressor.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::max_abs_err;
using test::noise_field;
using test::smooth_field;
using test::step_field;

// ---------------------------------------------------------------------------
// Error-bound property sweep: every (dims, eb, dataset) combination must
// respect max|x - x̂| <= eb. This is the core invariant of the codec.
// ---------------------------------------------------------------------------

// 64-bit fields only: gtest prints the struct's raw bytes into the ctest
// name, and padding would print whatever the stack held.
struct InterpCase {
  Dim3 dims;
  double eb;
  index_t dataset;  // 0 smooth, 1 noise, 2 step
};

class InterpErrorBound : public ::testing::TestWithParam<InterpCase> {};

FieldF make_dataset(int id, Dim3 d) {
  switch (id) {
    case 0: return smooth_field(d);
    case 1: return noise_field(d, 50.0);
    default: return step_field(d);
  }
}

TEST_P(InterpErrorBound, MaxErrorWithinBound) {
  const auto& p = GetParam();
  const FieldF f = make_dataset(static_cast<int>(p.dataset), p.dims);
  const InterpCompressor comp;
  const auto rt = round_trip(comp, f, p.eb);
  EXPECT_EQ(rt.reconstructed.dims(), p.dims);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), p.eb * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InterpErrorBound,
    ::testing::Values(
        InterpCase{{16, 16, 16}, 1.0, 0}, InterpCase{{16, 16, 16}, 0.01, 0},
        InterpCase{{17, 17, 17}, 0.5, 0}, InterpCase{{32, 8, 4}, 0.1, 0},
        InterpCase{{7, 5, 3}, 0.25, 0}, InterpCase{{64, 1, 1}, 0.5, 0},
        InterpCase{{1, 1, 64}, 0.5, 0}, InterpCase{{33, 1, 17}, 0.5, 0},
        InterpCase{{16, 16, 16}, 1.0, 1}, InterpCase{{20, 20, 20}, 0.05, 1},
        InterpCase{{16, 16, 16}, 10.0, 2}, InterpCase{{31, 31, 31}, 1.0, 2},
        InterpCase{{2, 2, 2}, 0.5, 0}, InterpCase{{1, 1, 1}, 0.5, 0},
        InterpCase{{9, 9, 9}, 0.001, 0}, InterpCase{{128, 4, 4}, 0.2, 0}));

// With adaptive per-level bounds, the overall bound must still be the
// nominal eb (coarser levels only get *tighter*).
class InterpAdaptiveEb : public ::testing::TestWithParam<double> {};

TEST_P(InterpAdaptiveEb, AdaptiveStillRespectsNominalBound) {
  const double eb = GetParam();
  const FieldF f = smooth_field({24, 24, 24});
  InterpConfig cfg;
  cfg.adaptive_eb = true;
  const InterpCompressor comp(cfg);
  const auto rt = round_trip(comp, f, eb);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), eb * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Ebs, InterpAdaptiveEb, ::testing::Values(0.01, 0.1, 1.0, 10.0));

TEST(Interp, AdaptiveEbImprovesAccuracyAtSameNominalBound) {
  const FieldF f = smooth_field({32, 32, 32});
  const double eb = 1.0;
  const auto plain = round_trip(InterpCompressor{}, f, eb);
  InterpConfig cfg;
  cfg.adaptive_eb = true;
  const auto adaptive = round_trip(InterpCompressor{cfg}, f, eb);
  // Tighter early-level bounds must not hurt accuracy.
  double mse_plain = 0, mse_adaptive = 0;
  for (index_t i = 0; i < f.size(); ++i) {
    mse_plain += std::pow(f[i] - plain.reconstructed[i], 2);
    mse_adaptive += std::pow(f[i] - adaptive.reconstructed[i], 2);
  }
  EXPECT_LE(mse_adaptive, mse_plain * 1.05);
}

TEST(Interp, SmoothDataCompressesWell) {
  const FieldF f = smooth_field({64, 64, 64});
  const InterpCompressor comp;
  const auto stream = comp.compress(f, 0.5);
  // ~200 range / 0.5 eb on smooth data: expect far better than 10:1.
  EXPECT_GT(compression_ratio(f.size(), stream.size()), 10.0);
}

TEST(Interp, NoiseForcesLowRatioButStaysBounded) {
  const FieldF f = noise_field({32, 32, 32}, 100.0);
  const InterpCompressor comp;
  const auto rt = round_trip(comp, f, 0.01);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), 0.01 + 1e-9);
  EXPECT_GT(rt.ratio, 0.5);  // never pathologically expands
}

TEST(Interp, ConstantFieldNearFreeToStore) {
  FieldF f({32, 32, 32}, 42.0f);
  const InterpCompressor comp;
  const auto rt = round_trip(comp, f, 0.1);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), 0.1);
  EXPECT_GT(rt.ratio, 400.0);
}

TEST(Interp, DecompressRejectsWrongMagic) {
  Bytes garbage(64, std::byte{0x5a});
  const InterpCompressor comp;
  EXPECT_THROW((void)comp.decompress(garbage), CodecError);
}

TEST(Interp, RejectsNonPositiveErrorBound) {
  const FieldF f = smooth_field({8, 8, 8});
  const InterpCompressor comp;
  EXPECT_THROW((void)comp.compress(f, 0.0), ContractError);
  EXPECT_THROW((void)comp.compress(f, -1.0), ContractError);
}

TEST(Interp, CubicBeatsLinearOnSmoothData) {
  const FieldF f = smooth_field({48, 48, 48});
  InterpConfig lin;
  lin.cubic = false;
  const auto s_cubic = InterpCompressor{}.compress(f, 0.01);
  const auto s_linear = InterpCompressor{lin}.compress(f, 0.01);
  EXPECT_LT(s_cubic.size(), s_linear.size());
}

// ---------------------------------------------------------------------------
// Extrapolation accounting (paper Figs. 7-8): power-of-two extents force
// constant extrapolation at inner points; 2^k + 1 extents eliminate it.
// ---------------------------------------------------------------------------

TEST(InterpExtrapolation, PaperExampleEightPoints) {
  // The paper's 1-D example: 8 points -> 2 of the 6 inner points
  // extrapolated (d5 and d7).
  EXPECT_EQ(InterpCompressor::count_extrapolated_points({8, 1, 1}), 2);
}

TEST(InterpExtrapolation, PaperExampleSixteenPoints) {
  // Paper: "If the block size is 16, this affects 3 out of 14 inner points."
  EXPECT_EQ(InterpCompressor::count_extrapolated_points({16, 1, 1}), 3);
}

TEST(InterpExtrapolation, PaddedLineHasNone) {
  EXPECT_EQ(InterpCompressor::count_extrapolated_points({9, 1, 1}), 0);
  EXPECT_EQ(InterpCompressor::count_extrapolated_points({17, 1, 1}), 0);
}

TEST(InterpExtrapolation, Padded3DMergedShapeHasNoneInSmallDims) {
  // A padded linear merge (17 x 17 x 8k) must not extrapolate at all:
  // z is a multiple of 16 plus ... the anchor logic keeps the long axis
  // extrapolation-free as well when nz is a multiple of the unit (each
  // last-row handled by the n-1 anchor).
  const index_t extrapolated_padded =
      InterpCompressor::count_extrapolated_points({17, 17, 256});
  const index_t extrapolated_unpadded =
      InterpCompressor::count_extrapolated_points({16, 16, 256});
  EXPECT_LT(extrapolated_padded, extrapolated_unpadded);
}

TEST(Interp, StreamIsSelfDescribing) {
  const FieldF f = smooth_field({12, 10, 8});
  InterpConfig cfg;
  cfg.adaptive_eb = true;
  cfg.alpha = 1.5;
  cfg.beta = 4.0;
  const InterpCompressor enc(cfg);
  // Decoding with a *default-configured* compressor must reproduce the data:
  // all parameters ride in the stream.
  const InterpCompressor dec;
  const auto recon = dec.decompress(enc.compress(f, 0.25));
  EXPECT_LE(max_abs_err(f, recon), 0.25 + 1e-9);
}

TEST(Interp, DecoderRejectsAdaptiveEbParametersTheConstructorRejects) {
  // alpha and beta ride in the stream. Unchecked, these values decoded
  // without an error into NaN samples or errors far past the bound.
  const FieldF f = smooth_field({33, 31, 29});
  InterpConfig cfg;
  cfg.adaptive_eb = true;
  const double eb = 1e-3;
  const Bytes clean = InterpCompressor(cfg).compress(f, eb);
  ByteReader r(clean);
  (void)detail::read_header(r, InterpCompressor::kMagic, "interp");
  const std::size_t alpha_at = r.position() + 2;  // past the adaptive and cubic flags
  const std::size_t beta_at = alpha_at + sizeof(double);
  auto expect_rejected = [&](std::size_t at, double v) {
    Bytes bad = clean;
    std::memcpy(bad.data() + at, &v, sizeof v);
    try {
      (void)InterpCompressor{}.decompress(bad);
      ADD_FAILURE() << "decoded with " << v << " at byte " << at;
    } catch (const CodecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad adaptive-eb parameters"), std::string::npos) << what;
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double alpha : {nan, 0.0, 0.5, -3.0}) expect_rejected(alpha_at, alpha);
  for (const double beta : {nan, 0.5}) expect_rejected(beta_at, beta);
  EXPECT_LE(max_abs_err(f, InterpCompressor{}.decompress(clean)), eb);
}

}  // namespace
}  // namespace mrc
