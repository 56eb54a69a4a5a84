#include "metrics/ssim.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"

namespace mrc::metrics {

namespace {

double ssim_impl(const FieldF& a, const FieldF& b, index_t wx, index_t wy, index_t wz,
                 index_t stride, double k1, double k2) {
  const Dim3 d = a.dims();
  const double range = a.value_range();
  const double c1 = (k1 * range) * (k1 * range);
  const double c2 = (k2 * range) * (k2 * range);
  const double inv_n = 1.0 / static_cast<double>(wx * wy * wz);

  // One (sum, count) partial per window plane, each kept in locals on its
  // lane and stored once, then added in plane order: the value does not
  // depend on how many lanes ran the planes.
  const index_t planes = (d.nz - wz) / stride + 1;
  std::vector<std::pair<double, index_t>> partial(static_cast<std::size_t>(planes));
  exec::parallel_for(planes, [&](index_t p) {
    const index_t z0 = p * stride;
    double sum = 0.0;
    index_t n = 0;
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
        const double mu_a = sa * inv_n;
        const double mu_b = sb * inv_n;
        const double var_a = std::max(0.0, saa * inv_n - mu_a * mu_a);
        const double var_b = std::max(0.0, sbb * inv_n - mu_b * mu_b);
        const double cov = sab * inv_n - mu_a * mu_b;
        const double s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                         ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2));
        sum += s;
        ++n;
      }
    partial[static_cast<std::size_t>(p)] = {sum, n};
  });
  double total = 0.0;
  index_t count = 0;
  for (const auto& [sum, n] : partial) {
    total += sum;
    count += n;
  }
  MRC_REQUIRE(count > 0, "field smaller than SSIM window");
  return total / static_cast<double>(count);
}

}  // namespace

double ssim(const FieldF& reference, const FieldF& test, const SsimConfig& cfg) {
  MRC_REQUIRE(reference.dims() == test.dims(), "dimension mismatch");
  const Dim3 d = reference.dims();
  const index_t wx = std::min(cfg.window, d.nx);
  const index_t wy = std::min(cfg.window, d.ny);
  const index_t wz = std::min(cfg.window, d.nz);
  return ssim_impl(reference, test, wx, wy, wz, std::max<index_t>(cfg.stride, 1), cfg.k1,
                   cfg.k2);
}

double ssim_central_slice(const FieldF& reference, const FieldF& test) {
  MRC_REQUIRE(reference.dims() == test.dims(), "dimension mismatch");
  const FieldF ra = central_slice_z(reference);
  const FieldF rb = central_slice_z(test);
  const Dim3 d = ra.dims();
  const index_t w = std::min<index_t>(8, std::min(d.nx, d.ny));
  return ssim_impl(ra, rb, w, w, 1, 1, 0.01, 0.03);
}

}  // namespace mrc::metrics
