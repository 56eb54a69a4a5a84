#include "metrics/fft.h"

#include <cmath>
#include <numbers>

#include "common/require.h"
#include "exec/thread_pool.h"

namespace mrc::metrics {

void fft_1d(cplx* data, std::size_t n, bool inverse) {
  MRC_REQUIRE(is_pow2(static_cast<index_t>(n)), "FFT length must be a power of two");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = data[i + j];
        const cplx v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= inv_n;
  }
}

void fft_3d(std::vector<cplx>& data, Dim3 dims, bool inverse) {
  MRC_REQUIRE(static_cast<index_t>(data.size()) == dims.size(), "size mismatch");
  MRC_REQUIRE(is_pow2(dims.nx) && is_pow2(dims.ny) && is_pow2(dims.nz),
              "extents must be powers of two");
  const index_t nx = dims.nx, ny = dims.ny, nz = dims.nz;

  // Along x: contiguous lines.
  exec::parallel_for(ny * nz, [&](index_t l) {
    fft_1d(data.data() + l * nx, static_cast<std::size_t>(nx), inverse);
  });

  // Along y: gather/scatter strided lines.
  exec::parallel_for(nz, [&](index_t z) {
    std::vector<cplx> line(static_cast<std::size_t>(ny));
    for (index_t x = 0; x < nx; ++x) {
      for (index_t y = 0; y < ny; ++y) line[static_cast<std::size_t>(y)] = data[static_cast<std::size_t>(dims.index(x, y, z))];
      fft_1d(line.data(), static_cast<std::size_t>(ny), inverse);
      for (index_t y = 0; y < ny; ++y) data[static_cast<std::size_t>(dims.index(x, y, z))] = line[static_cast<std::size_t>(y)];
    }
  });

  // Along z.
  exec::parallel_for(ny, [&](index_t y) {
    std::vector<cplx> line(static_cast<std::size_t>(nz));
    for (index_t x = 0; x < nx; ++x) {
      for (index_t z = 0; z < nz; ++z) line[static_cast<std::size_t>(z)] = data[static_cast<std::size_t>(dims.index(x, y, z))];
      fft_1d(line.data(), static_cast<std::size_t>(nz), inverse);
      for (index_t z = 0; z < nz; ++z) data[static_cast<std::size_t>(dims.index(x, y, z))] = line[static_cast<std::size_t>(z)];
    }
  });
}

}  // namespace mrc::metrics
