#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "metrics/fft.h"
#include "metrics/psnr.h"
#include "metrics/spectrum.h"
#include "metrics/ssim.h"
#include "simdata/generators.h"
#include "test_util.h"

namespace mrc::metrics {
namespace {

TEST(Psnr, IdenticalFieldsInfinite) {
  const FieldF f = test::smooth_field({8, 8, 8});
  EXPECT_TRUE(std::isinf(psnr(f, f)));
}

TEST(Psnr, KnownValue) {
  // Range 100, RMSE 1 -> PSNR = 40 dB.
  FieldF a({100, 1, 1}), b({100, 1, 1});
  for (index_t i = 0; i < 100; ++i) {
    a[i] = static_cast<float>(i);  // range 99
    b[i] = a[i] + ((i % 2) ? 1.0f : -1.0f);
  }
  const auto s = error_stats(a, b);
  EXPECT_DOUBLE_EQ(s.rmse, 1.0);
  EXPECT_NEAR(s.psnr, 20.0 * std::log10(99.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.max_abs_err, 1.0);
}

TEST(Psnr, MismatchedDimsThrow) {
  FieldF a({4, 4, 4}), b({4, 4, 2});
  EXPECT_THROW((void)psnr(a, b), ContractError);
}

TEST(Ssim, IdenticalIsOne) {
  const FieldF f = test::smooth_field({16, 16, 16});
  EXPECT_NEAR(ssim(f, f), 1.0, 1e-12);
}

TEST(Ssim, DegradesWithNoise) {
  const FieldF f = test::smooth_field({16, 16, 16}, 100.0);
  FieldF noisy = f;
  Rng rng(3);
  for (index_t i = 0; i < noisy.size(); ++i)
    noisy[i] += static_cast<float>(rng.normal(0.0, 20.0));
  const double s = ssim(f, noisy);
  EXPECT_LT(s, 0.95);
  EXPECT_GT(s, 0.0);
}

TEST(Ssim, OrderSensitivityIsMild) {
  const FieldF a = test::smooth_field({16, 16, 16}, 100.0);
  FieldF b = a;
  for (index_t i = 0; i < b.size(); ++i) b[i] += 5.0f;
  // Symmetric-ish metric: both directions agree to first order.
  EXPECT_NEAR(ssim(a, b), ssim(b, a), 0.05);
}

TEST(Ssim, MoreDistortionLowerScore) {
  const FieldF f = test::smooth_field({16, 16, 16}, 100.0);
  FieldF mild = f, severe = f;
  Rng rng(4);
  for (index_t i = 0; i < f.size(); ++i) {
    const float n = static_cast<float>(rng.normal());
    mild[i] += 2.0f * n;
    severe[i] += 30.0f * n;
  }
  EXPECT_GT(ssim(f, mild), ssim(f, severe));
}

TEST(Ssim, CentralSliceWorks) {
  const FieldF f = test::smooth_field({32, 32, 8}, 50.0);
  EXPECT_NEAR(ssim_central_slice(f, f), 1.0, 1e-12);
}

/// Test-side SSIM: each window's score as ssim.h defines it, summed per
/// window plane in scan order, then the plane sums added in plane order.
double ssim_plane_order_reference(const FieldF& a, const FieldF& b, const SsimConfig& cfg) {
  const Dim3 d = a.dims();
  const index_t wx = std::min(cfg.window, d.nx);
  const index_t wy = std::min(cfg.window, d.ny);
  const index_t wz = std::min(cfg.window, d.nz);
  const index_t stride = std::max<index_t>(cfg.stride, 1);
  const double range = a.value_range();
  const double c1 = (cfg.k1 * range) * (cfg.k1 * range);
  const double c2 = (cfg.k2 * range) * (cfg.k2 * range);
  const double inv_n = 1.0 / static_cast<double>(wx * wy * wz);
  std::vector<double> plane_sums;
  index_t count = 0;
  for (index_t z0 = 0; z0 <= d.nz - wz; z0 += stride) {
    double plane = 0.0;
    for (index_t y0 = 0; y0 <= d.ny - wy; y0 += stride)
      for (index_t x0 = 0; x0 <= d.nx - wx; x0 += stride) {
        double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
        for (index_t k = 0; k < wz; ++k)
          for (index_t j = 0; j < wy; ++j)
            for (index_t i = 0; i < wx; ++i) {
              const double va = a.at(x0 + i, y0 + j, z0 + k);
              const double vb = b.at(x0 + i, y0 + j, z0 + k);
              sa += va;
              sb += vb;
              saa += va * va;
              sbb += vb * vb;
              sab += va * vb;
            }
        const double mu_a = sa * inv_n, mu_b = sb * inv_n;
        const double var_a = std::max(0.0, saa * inv_n - mu_a * mu_a);
        const double var_b = std::max(0.0, sbb * inv_n - mu_b * mu_b);
        const double cov = sab * inv_n - mu_a * mu_b;
        plane += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                 ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2));
        ++count;
      }
    plane_sums.push_back(plane);
  }
  double total = 0.0;
  for (const double p : plane_sums) total += p;
  return total / static_cast<double>(count);
}

TEST(Ssim, SumsPlanePartialsInPlaneOrderOnAnyLaneCount) {
  // Bit for bit against the plane-order reference, called directly (planes
  // spread over the hardware's lanes) and from inside a one-lane pool (every
  // plane on that lane): the value does not depend on the lane count.
  Rng rng(17);
  const std::vector<std::pair<Dim3, SsimConfig>> cases = {
      {{40, 36, 44}, {}},
      {{33, 17, 29}, {5, 1, 0.01, 0.03}},
      {{24, 24, 64}, {7, 3, 0.02, 0.05}},
      {{16, 16, 3}, {7, 2, 0.01, 0.03}},  // window taller than the field
  };
  for (const auto& [dims, cfg] : cases) {
    const FieldF a = test::smooth_field(dims, 80.0);
    FieldF b = a;
    for (index_t i = 0; i < b.size(); ++i)
      b[i] += static_cast<float>(rng.normal(0.0, 4.0));
    const double want = ssim_plane_order_reference(a, b, cfg);
    const double wide = ssim(a, b, cfg);
    double one_lane = 0.0;
    exec::ThreadPool(1).parallel_for(1, [&](index_t) { one_lane = ssim(a, b, cfg); });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(wide), std::bit_cast<std::uint64_t>(want))
        << dims.nx << "x" << dims.ny << "x" << dims.nz << ": " << wide << " vs " << want;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one_lane), std::bit_cast<std::uint64_t>(want))
        << dims.nx << "x" << dims.ny << "x" << dims.nz;
  }
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<cplx> data(16, cplx{});
  data[0] = 1.0;
  fft_1d(data.data(), 16, false);
  for (const auto& v : data) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Fft, RoundTrip1D) {
  Rng rng(5);
  std::vector<cplx> data(64);
  for (auto& v : data) v = cplx(rng.normal(), rng.normal());
  auto copy = data;
  fft_1d(data.data(), 64, false);
  fft_1d(data.data(), 64, true);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] - copy[i]), 0.0, 1e-10);
}

TEST(Fft, SingleToneLandsInRightBin) {
  const std::size_t n = 32;
  std::vector<cplx> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = std::cos(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) / n);
  fft_1d(data.data(), n, false);
  EXPECT_NEAR(std::abs(data[5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - 5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[3]), 0.0, 1e-9);
}

TEST(Fft, RoundTrip3D) {
  const Dim3 d{8, 16, 4};
  Rng rng(6);
  std::vector<cplx> data(static_cast<std::size_t>(d.size()));
  for (auto& v : data) v = cplx(rng.normal(), rng.normal());
  auto copy = data;
  fft_3d(data, d, false);
  fft_3d(data, d, true);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] - copy[i]), 0.0, 1e-9);
}

TEST(Fft, ParsevalHolds3D) {
  const Dim3 d{8, 8, 8};
  Rng rng(7);
  std::vector<cplx> data(static_cast<std::size_t>(d.size()));
  double time_energy = 0;
  for (auto& v : data) {
    v = cplx(rng.normal(), 0.0);
    time_energy += std::norm(v);
  }
  fft_3d(data, d, false);
  double freq_energy = 0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(d.size()), time_energy,
              time_energy * 1e-10);
}

TEST(Fft, RejectsNonPow2) {
  std::vector<cplx> data(12);
  EXPECT_THROW(fft_1d(data.data(), 12, false), ContractError);
}

TEST(Spectrum, IdenticalFieldsZeroError) {
  const FieldF f = sim::nyx_density({32, 32, 32}, 3);
  const auto e = spectrum_error(f, f, 10);
  EXPECT_DOUBLE_EQ(e.max_rel, 0.0);
  EXPECT_DOUBLE_EQ(e.avg_rel, 0.0);
}

TEST(Spectrum, PowerLawShapeIsDecreasing) {
  const FieldF g = sim::gaussian_random_field({64, 64, 64}, 3.0, 11);
  FieldF f({64, 64, 64});
  for (index_t i = 0; i < f.size(); ++i) f[i] = g[i] + 10.0f;  // positive mean
  const auto p = power_spectrum(f, 16);
  // P(k) ∝ k^-3: strictly decreasing over the resolved range.
  EXPECT_GT(p[1], p[4]);
  EXPECT_GT(p[4], p[10]);
}

TEST(Spectrum, SmallPerturbationSmallError) {
  const FieldF f = sim::nyx_density({32, 32, 32}, 9);
  FieldF g = f;
  Rng rng(8);
  const double range = f.value_range();
  for (index_t i = 0; i < g.size(); ++i)
    g[i] += static_cast<float>(rng.normal(0.0, 1e-5 * range));
  const auto e = spectrum_error(f, g, 10);
  EXPECT_LT(e.max_rel, 0.05);
}

TEST(Spectrum, LargePerturbationLargerError) {
  const FieldF f = sim::nyx_density({32, 32, 32}, 9);
  FieldF small = f, big = f;
  Rng rng(9);
  const double range = f.value_range();
  for (index_t i = 0; i < f.size(); ++i) {
    const double n = rng.normal();
    small[i] += static_cast<float>(1e-5 * range * n);
    big[i] += static_cast<float>(1e-2 * range * n);
  }
  EXPECT_LT(spectrum_error(f, small, 10).avg_rel, spectrum_error(f, big, 10).avg_rel);
}

}  // namespace
}  // namespace mrc::metrics
