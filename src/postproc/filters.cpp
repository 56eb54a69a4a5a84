#include "postproc/filters.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "exec/thread_pool.h"

namespace mrc::postproc {

FieldF median_filter3(const FieldF& f) {
  const Dim3 d = f.dims();
  FieldF out(d);
  exec::parallel_for(d.nz, [&](index_t z) {
    std::array<float, 27> window;
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        int n = 0;
        for (index_t k = -1; k <= 1; ++k)
          for (index_t j = -1; j <= 1; ++j)
            for (index_t i = -1; i <= 1; ++i) {
              const index_t xx = std::clamp<index_t>(x + i, 0, d.nx - 1);
              const index_t yy = std::clamp<index_t>(y + j, 0, d.ny - 1);
              const index_t zz = std::clamp<index_t>(z + k, 0, d.nz - 1);
              window[static_cast<std::size_t>(n++)] = f.at(xx, yy, zz);
            }
        auto mid = window.begin() + n / 2;
        std::nth_element(window.begin(), mid, window.begin() + n);
        out.at(x, y, z) = *mid;
      }
  });
  return out;
}

namespace {

FieldF blur_axis(const FieldF& f, const std::vector<double>& kernel, int axis) {
  const Dim3 d = f.dims();
  const auto r = static_cast<index_t>(kernel.size() / 2);
  FieldF out(d);
  const index_t n_axis = d[axis];
  exec::parallel_for(d.nz, [&](index_t z) {
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        double acc = 0.0;
        for (index_t t = -r; t <= r; ++t) {
          index_t xx = x, yy = y, zz = z;
          auto& c = axis == 0 ? xx : (axis == 1 ? yy : zz);
          c = std::clamp<index_t>(c + t, 0, n_axis - 1);
          acc += kernel[static_cast<std::size_t>(t + r)] * f.at(xx, yy, zz);
        }
        out.at(x, y, z) = static_cast<float>(acc);
      }
  });
  return out;
}

}  // namespace

FieldF gaussian_blur(const FieldF& f, double sigma) {
  MRC_REQUIRE(sigma > 0.0, "sigma must be positive");
  const auto r = static_cast<index_t>(std::ceil(3.0 * sigma));
  std::vector<double> kernel(static_cast<std::size_t>(2 * r + 1));
  double sum = 0.0;
  for (index_t t = -r; t <= r; ++t) {
    const double v = std::exp(-0.5 * (t / sigma) * (t / sigma));
    kernel[static_cast<std::size_t>(t + r)] = v;
    sum += v;
  }
  for (auto& v : kernel) v /= sum;
  FieldF g = blur_axis(f, kernel, 0);
  g = blur_axis(g, kernel, 1);
  g = blur_axis(g, kernel, 2);
  return g;
}

FieldF anisotropic_diffusion(const FieldF& f, int iterations, double kappa, double lambda) {
  MRC_REQUIRE(iterations >= 1 && kappa > 0.0 && lambda > 0.0, "bad diffusion parameters");
  const Dim3 d = f.dims();
  FieldF cur = f;
  FieldF next(d);
  auto g = [&](double grad) {
    const double r = grad / kappa;
    return std::exp(-r * r);
  };
  for (int it = 0; it < iterations; ++it) {
    exec::parallel_for(d.nz, [&](index_t z) {
      for (index_t y = 0; y < d.ny; ++y)
        for (index_t x = 0; x < d.nx; ++x) {
          const double c = cur.at(x, y, z);
          double acc = 0.0;
          auto flow = [&](index_t xx, index_t yy, index_t zz) {
            const double diff = cur.at(std::clamp<index_t>(xx, 0, d.nx - 1),
                                       std::clamp<index_t>(yy, 0, d.ny - 1),
                                       std::clamp<index_t>(zz, 0, d.nz - 1)) -
                                c;
            acc += g(std::abs(diff)) * diff;
          };
          flow(x - 1, y, z);
          flow(x + 1, y, z);
          flow(x, y - 1, z);
          flow(x, y + 1, z);
          flow(x, y, z - 1);
          flow(x, y, z + 1);
          next.at(x, y, z) = static_cast<float>(c + lambda * acc);
        }
    });
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace mrc::postproc
