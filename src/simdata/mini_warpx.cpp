#include "simdata/mini_warpx.h"

#include <cmath>
#include <numbers>

#include "exec/thread_pool.h"

namespace mrc::sim {

MiniWarpX::MiniWarpX(const Params& p)
    : params_(p), prev_(p.dims, 0.0f), cur_(p.dims, 0.0f), next_(p.dims, 0.0f) {
  MRC_REQUIRE(p.courant > 0.0 && p.courant < 0.577, "unstable Courant number");
  // The source drives plane kSourceZ, which must be an interior plane that
  // the stencil updates (z <= nz - 2).
  MRC_REQUIRE(p.dims.nz >= kSourceZ + 2, "grid too thin for the source plane");
}

void MiniWarpX::step() {
  const Dim3 d = params_.dims;
  const double c2 = params_.courant * params_.courant;

  exec::parallel_for(d.nz - 2, [&](index_t zi) {
    const index_t z = zi + 1;
    for (index_t y = 1; y < d.ny - 1; ++y)
      for (index_t x = 1; x < d.nx - 1; ++x) {
        const double lap = cur_.at(x - 1, y, z) + cur_.at(x + 1, y, z) +
                           cur_.at(x, y - 1, z) + cur_.at(x, y + 1, z) +
                           cur_.at(x, y, z - 1) + cur_.at(x, y, z + 1) -
                           6.0 * cur_.at(x, y, z);
        next_.at(x, y, z) = static_cast<float>(2.0 * cur_.at(x, y, z) - prev_.at(x, y, z) +
                                               c2 * lap);
      }
  });

  // Gaussian-profile driven source near the low-z end (laser injection).
  const double amp = 1e11 * std::sin(2.0 * std::numbers::pi * step_ /
                                     static_cast<double>(params_.source_period));
  const double cx = d.nx / 2.0, cy = d.ny / 2.0;
  const double sig = std::min(d.nx, d.ny) * 0.15;
  for (index_t y = 1; y < d.ny - 1; ++y)
    for (index_t x = 1; x < d.nx - 1; ++x) {
      const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
      next_.at(x, y, kSourceZ) += static_cast<float>(amp * std::exp(-r2 / (2.0 * sig * sig)));
    }

  std::swap(prev_, cur_);
  std::swap(cur_, next_);
  ++step_;
}

}  // namespace mrc::sim
