// quantize codec: the zero predictor on the 2*eb grid. The sweep checks the
// bound on finite samples and, sample for sample, that the decode equals the
// LinearQuantizer reference at prediction 0 bit for bit — which makes every
// outlier (non-finite, out of radius, or off the grid after rounding)
// bit-exact. The Rejects cases pin decode's validation, one malformed field
// of a hand-built stream at a time.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantize/quantize_compressor.h"
#include "compressors/quantizer.h"
#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "test_util.h"

namespace mrc {
namespace {

enum Shape : index_t { kConstant, kSmooth, kNoise, kWide, kSpecial };

// 64-bit fields only, and a PrintTo: the ctest name is the printed case.
struct QuantizeCase {
  Dim3 dims;
  double eb;
  index_t radius;
  index_t shards;
  index_t shape;
};

void PrintTo(const QuantizeCase& c, std::ostream* os) {
  static const char* const kShapes[] = {"constant", "smooth", "noise", "wide", "special"};
  *os << kShapes[c.shape] << ' ' << c.dims.str() << " eb " << c.eb << " radius "
      << c.radius << " shards " << c.shards;
}

FieldF make_field(const QuantizeCase& c) {
  const Dim3 d = c.dims;
  switch (c.shape) {
    case kConstant: return FieldF(d, 3.25f);
    case kSmooth: return test::smooth_field(d);
    case kNoise: return test::noise_field(d, 5.0, 17);
    case kWide: {
      // |x| / 2eb >= radius for every sample: all of them escape.
      Rng rng(5);
      FieldF f(d);
      const double floor = 2.0 * c.eb * static_cast<double>(c.radius);
      for (index_t i = 0; i < f.size(); ++i)
        f[i] = static_cast<float>((i % 2 == 0 ? 1.0 : -1.0) * floor * (1.0 + rng.uniform()));
      return f;
    }
    default: {
      const float specials[] = {0.0f,
                                -0.0f,
                                std::numeric_limits<float>::denorm_min(),
                                -std::numeric_limits<float>::denorm_min(),
                                1e-40f,
                                std::numeric_limits<float>::quiet_NaN(),
                                -std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::max(),
                                0.7f,
                                -2.5f};
      FieldF f(d);
      for (index_t i = 0; i < f.size(); ++i) f[i] = specials[i % std::size(specials)];
      return f;
    }
  }
}

class QuantizeErrorBound : public ::testing::TestWithParam<QuantizeCase> {};

TEST_P(QuantizeErrorBound, MaxErrorWithinBoundOutliersExact) {
  const QuantizeCase& c = GetParam();
  const FieldF f = make_field(c);
  const QuantizeCompressor codec(
      {.quant_radius = static_cast<std::uint32_t>(c.radius),
       .entropy_shards = static_cast<std::uint32_t>(c.shards)});
  const Bytes stream = codec.compress(f, c.eb);
  EXPECT_EQ(peek_header(stream).entropy_shards,
            lossless::negotiate_entropy_shards(static_cast<std::uint64_t>(f.size()),
                                               static_cast<std::uint32_t>(c.shards)));
  const FieldF back = codec.decompress(stream);
  ASSERT_EQ(back.dims(), c.dims);

  const LinearQuantizer ref{c.eb, static_cast<std::uint32_t>(c.radius)};
  std::vector<float> escaped;
  index_t outliers = 0;
  for (index_t i = 0; i < f.size(); ++i) {
    float want = 0.0f;
    const bool outlier = ref.encode(f[i], 0.0, want, escaped) == 0;
    outliers += outlier ? 1 : 0;
    ASSERT_EQ(std::memcmp(&back[i], &want, sizeof(float)), 0)
        << "sample " << i << ": " << f[i] << " -> " << back[i] << (outlier ? " (outlier)" : "");
    if (std::isfinite(f[i])) {
      ASSERT_LE(std::abs(static_cast<double>(back[i]) - static_cast<double>(f[i])), c.eb)
          << "sample " << i;
    }
  }
  if (c.shape == kWide) {
    EXPECT_EQ(outliers, f.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizeErrorBound,
    ::testing::Values(QuantizeCase{{1, 1, 1}, 0.5, 512, 1, kConstant},
                      QuantizeCase{{7, 11, 13}, 1e-3, 2, 1, kConstant},
                      QuantizeCase{{1, 17, 5}, 0.5, 512, 1, kSmooth},
                      QuantizeCase{{31, 29, 23}, 0.5, 2, 1, kSmooth},
                      QuantizeCase{{64, 3, 2}, 1e-3, 512, 1, kSmooth},
                      QuantizeCase{{13, 1, 1}, 1.0, 2, 1, kNoise},
                      QuantizeCase{{31, 29, 23}, 1e-2, 512, 4, kNoise},  // v7 sharded
                      QuantizeCase{{2, 3, 5}, 1e-4, 512, 1, kNoise},
                      QuantizeCase{{17, 13, 9}, 1e-2, 512, 1, kWide},
                      QuantizeCase{{1, 1, 37}, 0.25, 2, 1, kWide},
                      QuantizeCase{{17, 13, 9}, 1e-2, 512, 1, kSpecial},
                      QuantizeCase{{5, 3, 1}, 0.5, 2, 1, kSpecial}));

// ---------------------------------------------------------------------------
// Decode validation: each stream below is well formed except for one field.
// ---------------------------------------------------------------------------

constexpr Dim3 kDims{4, 3, 2};
constexpr double kEb = 0.5;

struct Parts {
  std::uint64_t radius = 8;
  std::vector<std::uint32_t> codes = std::vector<std::uint32_t>(24, 8);
  std::vector<float> outliers;
  std::size_t outlier_pad = 0;  ///< extra raw bytes after the floats
  bool trailing = false;
};

Bytes craft(const Parts& p) {
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, QuantizeCompressor::kMagic, kDims, kEb);
  w.put_varint(p.radius);
  w.put_blob(lossless::encode_quant_codes(p.codes, 8));
  Bytes raw(p.outliers.size() * sizeof(float) + p.outlier_pad, std::byte{0});
  if (!p.outliers.empty()) std::memcpy(raw.data(), p.outliers.data(), raw.size() - p.outlier_pad);
  w.put_blob(lossless::lzss_compress(raw));
  if (p.trailing) w.put<std::uint8_t>(0);
  return out;
}

void expect_rejected(const Bytes& stream, const std::string& why) {
  try {
    (void)QuantizeCompressor{}.decompress(stream);
    FAIL() << "expected CodecError (" << why << ")";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Quantize, CraftedStreamDecodes) {
  // The baseline the Rejects cases mutate: codes 8 (bin 0) and one outlier.
  Parts p;
  p.codes[5] = 0;
  p.outliers = {42.5f};
  const FieldF back = QuantizeCompressor{}.decompress(craft(p));
  ASSERT_EQ(back.dims(), kDims);
  EXPECT_EQ(back[5], 42.5f);
  EXPECT_EQ(back[0], 0.0f);
}

TEST(Quantize, RejectsWrongMagic) {
  const Bytes lorenzo = LorenzoCompressor{}.compress(test::smooth_field(kDims), kEb);
  expect_rejected(lorenzo, "magic mismatch");
  expect_rejected(Bytes(64, std::byte{0x11}), "not an mrcomp stream");
}

TEST(Quantize, RejectsRadiusBelowTwo) {
  for (const std::uint64_t radius : {0u, 1u}) {
    Parts p;
    p.radius = radius;
    expect_rejected(craft(p), "bad radius");
  }
  EXPECT_THROW((void)QuantizeCompressor(QuantizeConfig{.quant_radius = 1}), ContractError);
}

TEST(Quantize, RejectsRadiusPastTheAlphabet) {
  // 2 * radius + 1 codes plus the run buckets must stay below 2^24, the
  // codebook's alphabet field (lossless::kMaxQuantRadius).
  Parts p;
  p.radius = (std::uint64_t{1} << 30) + 1;
  expect_rejected(craft(p), "bad radius");
  EXPECT_THROW((void)QuantizeCompressor(QuantizeConfig{.quant_radius = (1u << 30) + 1}),
               ContractError);
}

TEST(Quantize, RejectsCodeCountOffTheExtents) {
  for (const std::size_t n : {23u, 25u}) {
    Parts p;
    p.codes.assign(n, 8);
    expect_rejected(craft(p), "count");
  }
}

TEST(Quantize, RejectsOutlierBlobNotAMultipleOfFour) {
  Parts p;
  p.codes[5] = 0;
  p.outliers = {42.5f};
  p.outlier_pad = 1;
  expect_rejected(craft(p), "bad outlier blob");
}

TEST(Quantize, RejectsOutlierUnderrun) {
  Parts p;
  p.codes[5] = p.codes[9] = 0;
  p.outliers = {42.5f};
  expect_rejected(craft(p), "outlier underrun");
}

TEST(Quantize, RejectsLeftoverOutliers) {
  Parts p;
  p.outliers = {42.5f};
  expect_rejected(craft(p), "leftover outliers");
}

TEST(Quantize, RejectsTrailingBytes) {
  Parts p;
  p.trailing = true;
  expect_rejected(craft(p), "trailing bytes");
  const FieldF f = test::noise_field({9, 8, 7});
  Bytes real = QuantizeCompressor{}.compress(f, 0.01);
  real.push_back(std::byte{0});
  expect_rejected(real, "trailing bytes");
}

}  // namespace
}  // namespace mrc
