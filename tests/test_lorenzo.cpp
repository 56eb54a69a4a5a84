#include <gtest/gtest.h>

#include "compressors/lorenzo/lorenzo_compressor.h"
#include "lossless/lzss.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::max_abs_err;
using test::noise_field;
using test::smooth_field;
using test::step_field;

// 64-bit fields only: gtest prints the struct's raw bytes into the ctest
// name, and padding would print whatever the stack held.
struct LorenzoCase {
  Dim3 dims;
  double eb;
  index_t block;
  index_t chunks;
};

class LorenzoErrorBound : public ::testing::TestWithParam<LorenzoCase> {};

TEST_P(LorenzoErrorBound, MaxErrorWithinBound) {
  const auto& p = GetParam();
  const FieldF f = smooth_field(p.dims);
  LorenzoConfig cfg;
  cfg.block_size = p.block;
  cfg.chunks = static_cast<int>(p.chunks);
  const LorenzoCompressor comp(cfg);
  const auto rt = round_trip(comp, f, p.eb);
  EXPECT_EQ(rt.reconstructed.dims(), p.dims);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), p.eb * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LorenzoErrorBound,
    ::testing::Values(LorenzoCase{{24, 24, 24}, 0.5, 6, 1},
                      LorenzoCase{{24, 24, 24}, 0.01, 6, 1},
                      LorenzoCase{{16, 16, 16}, 0.5, 4, 1},
                      LorenzoCase{{17, 13, 9}, 0.5, 6, 1},  // partial blocks
                      LorenzoCase{{24, 24, 24}, 0.5, 6, 4},  // chunked, on the exec pool
                      LorenzoCase{{32, 8, 40}, 0.1, 4, 3},
                      LorenzoCase{{5, 5, 5}, 0.25, 6, 1},  // single partial block
                      LorenzoCase{{64, 64, 8}, 1.0, 8, 2}));

TEST(Lorenzo, NoiseRespectsBound) {
  const FieldF f = noise_field({20, 20, 20}, 30.0);
  const LorenzoCompressor comp;
  const auto rt = round_trip(comp, f, 0.05);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), 0.05 + 1e-9);
}

TEST(Lorenzo, StepFieldRespectsBound) {
  const FieldF f = step_field({24, 24, 24});
  const LorenzoCompressor comp;
  const auto rt = round_trip(comp, f, 2.0);
  EXPECT_LE(max_abs_err(f, rt.reconstructed), 2.0 + 1e-9);
}

TEST(Lorenzo, RegressionHelpsOnPlanarData) {
  // A steep plane is regression's best case and Lorenzo-with-zeros' worst.
  FieldF f({24, 24, 24});
  for (index_t z = 0; z < 24; ++z)
    for (index_t y = 0; y < 24; ++y)
      for (index_t x = 0; x < 24; ++x)
        f.at(x, y, z) = static_cast<float>(3.0 * x - 2.0 * y + z);
  LorenzoConfig with, without;
  without.use_regression = false;
  const auto s_with = LorenzoCompressor{with}.compress(f, 0.01);
  const auto s_without = LorenzoCompressor{without}.compress(f, 0.01);
  EXPECT_LT(s_with.size(), s_without.size());
}

TEST(Lorenzo, ChunkedModeTradesRatioForIndependence) {
  // Independent per-chunk entropy coding (the paper's "embarrassingly
  // parallel" SZ2) must not beat single-stream coding.
  const FieldF f = smooth_field({32, 32, 64});
  LorenzoConfig serial, chunked;
  chunked.chunks = 8;
  const auto s1 = LorenzoCompressor{serial}.compress(f, 0.1);
  const auto s8 = LorenzoCompressor{chunked}.compress(f, 0.1);
  EXPECT_LE(s1.size(), s8.size() * 1.02);  // allow 2% noise either way
  const auto r8 = LorenzoCompressor{chunked}.decompress(s8);
  EXPECT_LE(max_abs_err(f, r8), 0.1 + 1e-9);
}

TEST(Lorenzo, SmallBlocksShowBoundaryArtifacts) {
  // The paper notes SZ2 must drop from 6^3 to 4^3 blocks on
  // multi-resolution data, "leading to more artifacts due to the smaller
  // block size". Verify the artifact mechanism: at a coarse bound the
  // reconstruction is less smooth across 4-block boundaries than inside
  // blocks (second-difference proxy for blocking artifacts).
  const FieldF f = smooth_field({48, 48, 48}, 1000.0);
  LorenzoConfig b4;
  b4.block_size = 4;
  const auto rt = round_trip(LorenzoCompressor{b4}, f, 10.0);
  const auto& r = rt.reconstructed;
  double boundary = 0, interior = 0;
  index_t nb = 0, ni = 0;
  for (index_t z = 0; z < 48; ++z)
    for (index_t y = 0; y < 48; ++y)
      for (index_t x = 1; x < 47; ++x) {
        const double second_diff = std::abs(static_cast<double>(r.at(x - 1, y, z)) -
                                            2.0 * r.at(x, y, z) + r.at(x + 1, y, z));
        if (x % 4 == 0 || x % 4 == 3) {
          boundary += second_diff;
          ++nb;
        } else {
          interior += second_diff;
          ++ni;
        }
      }
  EXPECT_GT(boundary / static_cast<double>(nb), interior / static_cast<double>(ni));
}

TEST(Lorenzo, DecompressRejectsWrongMagic) {
  Bytes garbage(64, std::byte{0x11});
  EXPECT_THROW((void)LorenzoCompressor{}.decompress(garbage), CodecError);
}

TEST(Lorenzo, RejectsOutlierBlobNotAMultipleOfFour) {
  // A small quant radius on noise forces outliers into chunk 0's blob. The
  // stream is rebuilt with three extra bytes appended to that blob's decoded
  // payload: not a whole float, so decode must refuse it rather than copy
  // past the outlier buffer.
  const FieldF f = noise_field({16, 16, 16}, 30.0);
  LorenzoConfig cfg;
  cfg.quant_radius = 8;
  const LorenzoCompressor comp(cfg);
  const Bytes clean = comp.compress(f, 0.05);

  ByteReader r(clean);
  (void)detail::read_header(r, LorenzoCompressor::kMagic, "lorenzo");
  (void)r.get_varint();         // block size
  (void)r.get_varint();         // quant radius
  (void)r.get<std::uint8_t>();  // use_regression
  ASSERT_EQ(r.get_varint(), 1u);
  const std::size_t prefix = r.position();
  const auto flags = r.get_blob();
  const auto coeffs = r.get_blob();
  const auto codes = r.get_blob();
  Bytes outliers = lossless::lzss_decompress(r.get_blob());
  ASSERT_GT(outliers.size(), 0u);
  ASSERT_EQ(outliers.size() % sizeof(float), 0u);
  outliers.insert(outliers.end(), 3, std::byte{0x5a});

  Bytes bad(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(prefix));
  ByteWriter w(bad);
  w.put_blob(flags);
  w.put_blob(coeffs);
  w.put_blob(codes);
  w.put_blob(lossless::lzss_compress(outliers));
  w.put_bytes(std::span(clean).subspan(r.position()));

  EXPECT_LE(max_abs_err(f, comp.decompress(clean)), 0.05 + 1e-9);
  EXPECT_THROW((void)comp.decompress(bad), CodecError);
}

TEST(Lorenzo, RejectsBadConfig) {
  LorenzoConfig cfg;
  cfg.block_size = 1;
  EXPECT_THROW(LorenzoCompressor{cfg}, ContractError);
}

TEST(Lorenzo, CompressionRatioOnSmoothData) {
  const FieldF f = smooth_field({48, 48, 48});
  const auto rt = round_trip(LorenzoCompressor{}, f, 0.5);
  EXPECT_GT(rt.ratio, 8.0);
}

}  // namespace
}  // namespace mrc
