#include "simdata/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "metrics/fft.h"

namespace mrc::sim {

namespace {

using metrics::cplx;

double sqr(double v) { return v * v; }

}  // namespace

FieldF gaussian_random_field(Dim3 dims, double spectral_index, std::uint64_t seed) {
  MRC_REQUIRE(metrics::is_pow2(dims.nx) && metrics::is_pow2(dims.ny) &&
                  metrics::is_pow2(dims.nz),
              "GRF extents must be powers of two");
  std::vector<cplx> spec(static_cast<std::size_t>(dims.size()));
  Rng rng(seed);

  auto wrapped = [](index_t i, index_t n) {
    return static_cast<double>(i <= n / 2 ? i : i - n);
  };
  for (index_t z = 0; z < dims.nz; ++z)
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x) {
        const double kx = wrapped(x, dims.nx);
        const double ky = wrapped(y, dims.ny);
        const double kz = wrapped(z, dims.nz);
        const double k = std::sqrt(kx * kx + ky * ky + kz * kz);
        double amp = 0.0;
        if (k > 0.0) amp = std::pow(k, -spectral_index / 2.0);
        spec[static_cast<std::size_t>(dims.index(x, y, z))] =
            cplx(rng.normal() * amp, rng.normal() * amp);
      }
  metrics::fft_3d(spec, dims, /*inverse=*/true);

  // Take the real part and normalize to zero mean, unit variance.
  FieldF out(dims);
  double mean = 0.0;
  for (index_t i = 0; i < dims.size(); ++i) {
    out[i] = static_cast<float>(spec[static_cast<std::size_t>(i)].real());
    mean += out[i];
  }
  mean /= static_cast<double>(dims.size());
  double var = 0.0;
  for (index_t i = 0; i < dims.size(); ++i) var += sqr(out[i] - mean);
  var /= static_cast<double>(dims.size());
  const double inv_std = var > 0.0 ? 1.0 / std::sqrt(var) : 1.0;
  for (index_t i = 0; i < dims.size(); ++i)
    out[i] = static_cast<float>((out[i] - mean) * inv_std);
  return out;
}

FieldF nyx_density(Dim3 dims, std::uint64_t seed, double bias) {
  FieldF g = gaussian_random_field(dims, 3.0, seed);
  FieldF rho(dims);
  // Log-normal transform; normalize to mean ~1e9 afterwards so values land
  // in Nyx's baryon-density unit range.
  double sum = 0.0;
  for (index_t i = 0; i < dims.size(); ++i) {
    const double v = std::exp(bias * static_cast<double>(g[i]));
    rho[i] = static_cast<float>(v);
    sum += v;
  }
  const double scale = 1e9 * static_cast<double>(dims.size()) / sum;
  for (index_t i = 0; i < dims.size(); ++i)
    rho[i] = static_cast<float>(rho[i] * scale);
  return rho;
}

FieldF warpx_ez(Dim3 dims, std::uint64_t seed) {
  Rng rng(seed);
  FieldF ez(dims);
  const double cx = dims.nx / 2.0, cy = dims.ny / 2.0;
  const double z0 = dims.nz * 0.65;  // packet position along propagation axis
  const double sig_z = dims.nz * 0.04;
  const double sig_r = std::min(dims.nx, dims.ny) * 0.18;
  const double k_laser = 2.0 * std::numbers::pi / (dims.nz * 0.02);
  const double k_plasma = 2.0 * std::numbers::pi / (dims.nz * 0.08);
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);

  // Low-amplitude broadband background so the field is not exactly zero
  // away from the packet (mirrors physical noise in PIC output).
  FieldF noise = gaussian_random_field(dims, 2.0, seed ^ 0xabcdef);

  exec::parallel_for(dims.nz, [&](index_t z) {
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x) {
        const double r2 = sqr(x - cx) + sqr(y - cy);
        const double radial = std::exp(-r2 / (2.0 * sqr(sig_r)));
        const double dz = z - z0;
        // Laser packet.
        double v = std::exp(-sqr(dz) / (2.0 * sqr(sig_z))) * std::sin(k_laser * dz + phase);
        // Plasma wake behind the packet, slowly decaying.
        if (dz < 0) {
          v += 0.35 * std::exp(dz / (dims.nz * 0.25)) * std::sin(k_plasma * dz + phase) *
               std::cos(r2 / (2.0 * sqr(sig_r)));
        }
        ez.at(x, y, z) =
            static_cast<float>(1e11 * (radial * v + 2e-4 * noise.at(x, y, z)));
      }
  });
  return ez;
}

FieldF rayleigh_taylor(Dim3 dims, std::uint64_t seed) {
  Rng rng(seed);
  FieldF rho(dims);
  const int n_modes = 6;
  double ax[n_modes], kx[n_modes], ky[n_modes], ph[n_modes];
  for (int m = 0; m < n_modes; ++m) {
    ax[m] = dims.nz * 0.03 * rng.uniform(0.5, 1.5) / (m + 1);
    kx[m] = 2.0 * std::numbers::pi * (m + 1) / static_cast<double>(dims.nx);
    ky[m] = 2.0 * std::numbers::pi * (m + 1) / static_cast<double>(dims.ny);
    ph[m] = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }
  // Fine-scale structure concentrated near the interface (mixing layer).
  // Spectral index ~3.2 keeps the turbulence smooth enough that the data
  // compresses in the regime the paper's RT dataset occupies.
  FieldF turb = gaussian_random_field(dims, 3.2, seed ^ 0x5117);

  const double z_mid = dims.nz / 2.0;
  const double delta = dims.nz * 0.015;  // interface thickness

  exec::parallel_for(dims.nz, [&](index_t z) {
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x) {
        double h = z_mid;
        for (int m = 0; m < n_modes; ++m)
          h += ax[m] * std::cos(kx[m] * x + ph[m]) * std::cos(ky[m] * y + 0.7 * ph[m]);
        const double s = std::tanh((z - h) / delta);
        const double envelope = std::exp(-sqr(z - h) / (2.0 * sqr(8.0 * delta)));
        const double v = 2.0 + s + 0.12 * envelope * turb.at(x, y, z);
        rho.at(x, y, z) = static_cast<float>(v);
      }
  });
  return rho;
}

FieldF hurricane_field(Dim3 dims, std::uint64_t seed) {
  Rng rng(seed);
  FieldF wind(dims);
  const double r_core = std::min(dims.nx, dims.ny) * 0.06;
  const double v_max = 70.0;  // m/s scale
  const double tilt = rng.uniform(-0.15, 0.15);

  exec::parallel_for(dims.nz, [&](index_t z) {
    // Vortex center drifts (tilts) with height.
    const double cx = dims.nx * 0.5 + tilt * static_cast<double>(z) * 2.0;
    const double cy = dims.ny * 0.5 - tilt * static_cast<double>(z) * 1.5;
    const double vert = std::exp(-sqr(z - dims.nz * 0.3) / (2.0 * sqr(dims.nz * 0.35)));
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x) {
        const double dx = x - cx, dy = y - cy;
        const double r = std::sqrt(dx * dx + dy * dy) + 1e-9;
        const double theta = std::atan2(dy, dx);
        // Rankine profile: solid-body core, 1/r^0.6 decay outside.
        double v = r < r_core ? v_max * (r / r_core)
                              : v_max * std::pow(r_core / r, 0.6);
        // Spiral rain bands.
        v *= 1.0 + 0.25 * std::cos(2.0 * theta - 0.15 * r);
        // Calm far field => sparse data (many near-zero values).
        v *= std::exp(-r / (std::min(dims.nx, dims.ny) * 0.45));
        wind.at(x, y, z) = static_cast<float>(v * vert);
      }
  });
  return wind;
}

FieldF s3d_flame(Dim3 dims, std::uint64_t seed) {
  Rng rng(seed);
  const int n_kernels = 5;
  double cx[n_kernels], cy[n_kernels], cz[n_kernels], radius[n_kernels];
  for (int i = 0; i < n_kernels; ++i) {
    cx[i] = rng.uniform(0.2, 0.8) * dims.nx;
    cy[i] = rng.uniform(0.2, 0.8) * dims.ny;
    cz[i] = rng.uniform(0.2, 0.8) * dims.nz;
    radius[i] = rng.uniform(0.08, 0.22) * dims.max_extent();
  }
  FieldF wrinkle = gaussian_random_field(dims, 3.5, seed ^ 0xf1a3);
  FieldF temp(dims);
  const double t_unburnt = 300.0, t_burnt = 2100.0;
  const double layer = dims.max_extent() * 0.01;  // reaction-layer thickness

  exec::parallel_for(dims.nz, [&](index_t z) {
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x) {
        double burn = 0.0;  // max over kernels of the progress variable
        for (int i = 0; i < n_kernels; ++i) {
          const double r = std::sqrt(sqr(x - cx[i]) + sqr(y - cy[i]) + sqr(z - cz[i]));
          const double wr = radius[i] * (1.0 + 0.18 * wrinkle.at(x, y, z));
          burn = std::max(burn, 0.5 * (1.0 + std::tanh((wr - r) / layer)));
        }
        temp.at(x, y, z) = static_cast<float>(t_unburnt + (t_burnt - t_unburnt) * burn);
      }
  });
  return temp;
}

}  // namespace mrc::sim
