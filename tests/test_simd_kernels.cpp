#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "compressors/compressor.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantize/quantize_compressor.h"
#include "compressors/simd_kernels.h"
#include "test_util.h"

namespace mrc::simd {
namespace {

/// Pins dispatch to one ISA for a scope, restoring best on exit — tests must
/// not leak a forced-scalar dispatch into later suites.
class IsaScope {
 public:
  explicit IsaScope(Isa isa) { applied_ = force_isa(isa); }
  ~IsaScope() { force_isa(best_isa()); }
  [[nodiscard]] Isa applied() const { return applied_; }

 private:
  Isa applied_;
};

/// The ISAs this build + CPU can actually run (scalar always; avx2 when
/// force_isa does not clamp it away).
std::vector<Isa> available_isas() {
  std::vector<Isa> out{Isa::scalar};
  const IsaScope s(Isa::avx2);
  if (s.applied() == Isa::avx2) out.push_back(Isa::avx2);
  return out;
}

/// Row inputs that bias every interesting quantizer branch: smooth values
/// (deep zero-run bins), residuals engineered to land exactly on .5 bin
/// boundaries (llround tie behavior), spikes far outside the range check
/// (outliers) and NaN samples, which every comparison rejects.
struct RowData {
  std::vector<float> orig, a, b, c, d;
};

RowData make_row(std::size_t n, double eb, std::uint64_t seed) {
  Rng rng(seed);
  RowData r;
  r.orig.resize(n);
  r.a.resize(n);
  r.b.resize(n);
  r.c.resize(n);
  r.d.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = 10.0 * std::sin(0.21 * static_cast<double>(i));
    r.a[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.b[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.c[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.d[i] = static_cast<float>(base + 0.3 * rng.normal());
    const double u = rng.uniform();
    if (u < 0.45) {
      r.orig[i] = static_cast<float>(base + eb * rng.uniform(-0.9, 0.9));
    } else if (u < 0.70) {
      // Residual pinned near a half-bin boundary: q*2eb + eb is the exact
      // tie point of llround(diff / 2eb). Both signs, even and odd q.
      const auto q = static_cast<double>(rng.uniform_index(7)) - 3.0;
      r.orig[i] = static_cast<float>(base + 2.0 * eb * q + eb);
    } else if (u < 0.95) {
      r.orig[i] = static_cast<float>(base + eb * rng.uniform(-40.0, 40.0));
    } else if (u < 0.98) {
      r.orig[i] = static_cast<float>(base + 1e6 * (rng.uniform() < 0.5 ? -1.0 : 1.0));
    } else {
      r.orig[i] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return r;
}

struct KernelOut {
  std::vector<std::uint32_t> codes;
  std::vector<float> recon;
  AlignedVec<float> outliers;
};

enum class Shape { linear, cubic, plane };

KernelOut run_quantize(Shape shape, const RowData& r, double eb,
                       std::uint32_t radius) {
  const std::size_t n = r.orig.size();
  KernelOut out;
  out.codes.assign(n, 0xdeadbeefu);
  out.recon.assign(n, -1.0f);
  switch (shape) {
    case Shape::linear:
      quantize_row_linear(r.orig.data(), r.b.data(), r.c.data(), n, eb, radius,
                          out.codes.data(), out.recon.data(), out.outliers);
      break;
    case Shape::cubic:
      quantize_row_cubic(r.orig.data(), r.a.data(), r.b.data(), r.c.data(),
                         r.d.data(), n, eb, radius, out.codes.data(),
                         out.recon.data(), out.outliers);
      break;
    case Shape::plane:
      quantize_row_plane(r.orig.data(), n, 3.25, 0.125, 1.5, -0.75, 2.5, eb,
                         radius, out.codes.data(), out.recon.data(), out.outliers);
      break;
  }
  return out;
}

std::vector<float> run_dequantize(Shape shape, const KernelOut& enc,
                                  const RowData& r, double eb,
                                  std::uint32_t radius) {
  const std::size_t n = enc.codes.size();
  std::vector<float> recon(n, -2.0f);
  const std::span<const float> osp(enc.outliers.data(), enc.outliers.size());
  std::size_t pos = 0;
  switch (shape) {
    case Shape::linear:
      dequantize_row_linear(enc.codes.data(), r.b.data(), r.c.data(), n, eb,
                            radius, recon.data(), osp, pos);
      break;
    case Shape::cubic:
      dequantize_row_cubic(enc.codes.data(), r.a.data(), r.b.data(), r.c.data(),
                           r.d.data(), n, eb, radius, recon.data(), osp, pos);
      break;
    case Shape::plane:
      dequantize_row_plane(enc.codes.data(), n, 3.25, 0.125, 1.5, -0.75, 2.5, eb,
                           radius, recon.data(), osp, pos);
      break;
  }
  EXPECT_EQ(pos, enc.outliers.size()) << "dequantize left outliers unconsumed";
  return recon;
}

/// Bit-level float comparison: -0.0f vs 0.0f or NaN payload drift in recon
/// would silently break the frozen format, so == is not enough.
bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  return std::equal(x.begin(), x.end(), y.begin(), [](float p, float q) {
    std::uint32_t pb = 0, qb = 0;
    std::memcpy(&pb, &p, 4);
    std::memcpy(&qb, &q, 4);
    return pb == qb;
  });
}

bool same_bits(const AlignedVec<float>& x, const AlignedVec<float>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::uint32_t pb = 0, qb = 0;
    std::memcpy(&pb, &x[i], 4);
    std::memcpy(&qb, &y[i], 4);
    if (pb != qb) return false;
  }
  return true;
}

TEST(SimdKernels, DispatchReportsAnIsa) {
  EXPECT_GE(static_cast<int>(best_isa()), static_cast<int>(Isa::scalar));
  EXPECT_EQ(active_isa(), best_isa());
  EXPECT_STREQ(isa_name(Isa::scalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::avx2), "avx2");
  // Forcing above best clamps rather than dispatching to a path the CPU lacks.
  const Isa got = force_isa(Isa::avx2);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(best_isa()));
  force_isa(best_isa());
}

TEST(SimdKernels, EveryIsaBitIdenticalToScalar) {
  const auto isas = available_isas();
  // Odd lengths exercise the vector tail; 1..3 are all-tail rows, 6 is a
  // lorenzo block row and 4096 a quantize codec row.
  const std::size_t lengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 31, 64, 257, 4096};
  // 1e-30 sends nearly every sample to the outlier list.
  const double ebs[] = {1e-3, 0.25, 3.7e-5, 1e-30};
  // 2 is the narrowest radius a stream takes; 2^29 + 3 is a wide one that
  // still takes the vector path (its int32 code lanes need radius < 2^30).
  const std::uint32_t radii[] = {512u, 4u, 2u, (1u << 29) + 3u};
  for (const auto shape : {Shape::linear, Shape::cubic, Shape::plane}) {
    for (const std::size_t n : lengths) {
      for (const double eb : ebs) {
        for (const std::uint32_t radius : radii) {
          const RowData row = make_row(n, eb, 1000 + n);
          KernelOut ref;
          {
            const IsaScope s(Isa::scalar);
            ref = run_quantize(shape, row, eb, radius);
          }
          std::vector<float> ref_dec;
          {
            const IsaScope s(Isa::scalar);
            ref_dec = run_dequantize(shape, ref, row, eb, radius);
          }
          ASSERT_TRUE(same_bits(ref_dec, ref.recon))
              << "scalar decode does not invert scalar encode";
          for (const Isa isa : isas) {
            const IsaScope s(isa);
            const KernelOut got = run_quantize(shape, row, eb, radius);
            EXPECT_EQ(got.codes, ref.codes)
                << isa_name(isa) << " codes diverge (shape "
                << static_cast<int>(shape) << ", n=" << n << ")";
            EXPECT_TRUE(same_bits(got.recon, ref.recon))
                << isa_name(isa) << " recon diverges (n=" << n << ")";
            EXPECT_TRUE(same_bits(got.outliers, ref.outliers))
                << isa_name(isa) << " outliers diverge (n=" << n << ")";
            const auto dec = run_dequantize(shape, ref, row, eb, radius);
            EXPECT_TRUE(same_bits(dec, ref_dec))
                << isa_name(isa) << " dequantize diverges (n=" << n << ")";
          }
        }
      }
    }
  }
}

TEST(SimdKernels, HugeRadiusFallsBackToScalarResults) {
  // radius >= 2^30 codes cannot ride the int32 conversion; the kernels must
  // fall back and still match scalar exactly.
  const std::uint32_t radius = (1u << 30) + 5u;
  const double eb = 1e-3;
  const RowData row = make_row(37, eb, 7);
  KernelOut ref;
  {
    const IsaScope s(Isa::scalar);
    ref = run_quantize(Shape::linear, row, eb, radius);
  }
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    const KernelOut got = run_quantize(Shape::linear, row, eb, radius);
    EXPECT_EQ(got.codes, ref.codes) << isa_name(isa);
    EXPECT_TRUE(same_bits(got.recon, ref.recon)) << isa_name(isa);
  }
}

TEST(SimdKernels, DequantizeOutlierUnderrunThrows) {
  // A code stream holding outlier escapes but an empty outlier list must
  // throw on every ISA, never read past the span.
  const std::size_t n = 9;
  const std::vector<std::uint32_t> codes(n, 0u);
  const std::vector<float> src(n, 1.0f);
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    std::vector<float> recon(n);
    std::size_t pos = 0;
    EXPECT_THROW(dequantize_row_linear(codes.data(), src.data(), src.data(), n, 1e-3,
                                       512, recon.data(), {}, pos),
                 CodecError)
        << isa_name(isa);
  }
}

/// Whole-codec bit-identity: the same field must compress to the same bytes
/// under every ISA, across extents that stress the row carving (degenerate
/// 1xNxM slabs, prime extents, and a square volume).
class SimdCodecBitIdentity : public ::testing::TestWithParam<Dim3> {};

TEST_P(SimdCodecBitIdentity, InterpStreamsMatchScalar) {
  const Dim3 d = GetParam();
  const FieldF f = test::noise_field(d, 5.0, 42);
  const double eb = 1e-2;
  const InterpCompressor codec;
  Bytes ref;
  {
    const IsaScope s(Isa::scalar);
    ref = codec.compress(f, eb);
  }
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    EXPECT_EQ(codec.compress(f, eb), ref) << isa_name(isa) << " " << d.str();
    const FieldF back = codec.decompress(ref);
    EXPECT_LE(test::max_abs_err(f, back), eb);
  }
}

TEST_P(SimdCodecBitIdentity, LorenzoStreamsMatchScalar) {
  const Dim3 d = GetParam();
  const FieldF f = test::smooth_field(d);
  const double eb = 1e-3;
  const LorenzoCompressor codec;
  Bytes ref;
  {
    const IsaScope s(Isa::scalar);
    ref = codec.compress(f, eb);
  }
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    EXPECT_EQ(codec.compress(f, eb), ref) << isa_name(isa) << " " << d.str();
    const FieldF back = codec.decompress(ref);
    EXPECT_LE(test::max_abs_err(f, back), eb);
  }
}

TEST_P(SimdCodecBitIdentity, QuantizeStreamsMatchScalar) {
  // The zero-plane rows of the quantize codec: radius 4 escapes most of the
  // noise to the outlier list, 512 almost none of it.
  const Dim3 d = GetParam();
  const FieldF f = test::noise_field(d, 5.0, 42);
  const double eb = 1e-2;
  for (const std::uint32_t radius : {512u, 4u}) {
    const QuantizeCompressor codec(QuantizeConfig{.quant_radius = radius});
    Bytes ref;
    {
      const IsaScope s(Isa::scalar);
      ref = codec.compress(f, eb);
    }
    FieldF ref_back;
    {
      const IsaScope s(Isa::scalar);
      ref_back = codec.decompress(ref);
    }
    EXPECT_LE(test::max_abs_err(f, ref_back), eb);
    for (const Isa isa : available_isas()) {
      const IsaScope s(isa);
      EXPECT_EQ(codec.compress(f, eb), ref) << isa_name(isa) << " " << d.str();
      const FieldF back = codec.decompress(ref);
      EXPECT_EQ(std::memcmp(back.data(), ref_back.data(),
                            static_cast<std::size_t>(back.size()) * sizeof(float)),
                0)
          << isa_name(isa) << " " << d.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(OddExtents, SimdCodecBitIdentity,
                         ::testing::Values(Dim3{1, 37, 53}, Dim3{53, 1, 37},
                                           Dim3{37, 53, 1}, Dim3{31, 29, 23},
                                           Dim3{2, 3, 5}, Dim3{32, 32, 32}));

TEST(CodecScratch, AlignedVecIsCacheLineAligned) {
  // Satellite: the thread-local codec scratch must never straddle a cache
  // line at its base — vector loads assume 64-byte alignment.
  for (const std::size_t n : {1u, 7u, 63u, 4096u}) {
    AlignedVec<std::uint32_t> codes(n);
    AlignedVec<float> outliers(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(codes.data()) % kScratchAlign, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(outliers.data()) % kScratchAlign, 0u);
  }
}

TEST(CodecScratch, TrimKeepsSmallDropsLarge) {
  // Satellite: the 32 MiB trim must behave identically for aligned scratch.
  AlignedVec<std::uint32_t> small(1024);
  mrc::detail::trim_scratch(small);
  EXPECT_GE(small.capacity(), 1024u);  // under the cap: kept

  AlignedVec<std::uint32_t> big;
  big.reserve((mrc::detail::kScratchKeepBytes / sizeof(std::uint32_t)) + 1);
  mrc::detail::trim_scratch(big);
  EXPECT_EQ(big.capacity(), 0u);  // over the cap: released
}

}  // namespace
}  // namespace mrc::simd
