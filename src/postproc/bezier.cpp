#include "postproc/bezier.h"

#include <algorithm>

#include "exec/thread_pool.h"

namespace mrc::postproc {

namespace {

/// True when index i sits immediately on either side of an internal block
/// boundary: i == m*bs - 1 (last of a block) or i == m*bs (first of the
/// next), excluding the domain edges which have no cross-boundary neighbor.
bool boundary_adjacent(index_t i, index_t n, index_t bs) {
  if (i <= 0 || i >= n - 1) return false;
  const index_t r = i % bs;
  return r == 0 || r == bs - 1;
}

FieldF sweep(const FieldF& in, index_t bs, double eb, double a, int axis, bool clamp,
             CurveKind curve) {
  const Dim3 d = in.dims();
  const index_t n_axis = d[axis];
  if (n_axis <= bs || (clamp && a <= 0.0)) return in;  // no internal boundaries / disabled

  FieldF out = in;
  const double lim = a * eb;
  const index_t stride = axis == 0 ? 1 : (axis == 1 ? d.nx : d.nx * d.ny);

  exec::parallel_for(d.nz, [&](index_t z) {
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const index_t i = axis == 0 ? x : (axis == 1 ? y : z);
        if (!boundary_adjacent(i, n_axis, bs)) continue;
        const index_t idx = d.index(x, y, z);
        const double dm = in[idx - stride];
        const double dc = in[idx];
        const double dp = in[idx + stride];
        double b;
        switch (curve) {
          case CurveKind::catmull_cubic: {
            // Cubic Lagrange through the ±1 / ±2 neighbors evaluated at the
            // center, blended 50/50 with d_i (the analog of t = 0.5).
            const bool wide = i >= 2 && i + 2 < n_axis;
            const double dm2 = wide ? in[idx - 2 * stride] : dm;
            const double dp2 = wide ? in[idx + 2 * stride] : dp;
            const double interp = (-dm2 + 4.0 * dm + 4.0 * dp - dp2) / 6.0;
            b = 0.5 * dc + 0.5 * interp;
            break;
          }
          case CurveKind::bspline:
            b = (dm + 4.0 * dc + dp) / 6.0;
            break;
          case CurveKind::bezier_quadratic:
          default:
            b = 0.25 * dm + 0.5 * dc + 0.25 * dp;  // B(0.5)
            break;
        }
        if (clamp) b = std::clamp(b, dc - lim, dc + lim);
        out[idx] = static_cast<float>(b);
      }
  });
  return out;
}

}  // namespace

FieldF bezier_postprocess_axis(const FieldF& dec, index_t block_size, double eb, double a,
                               int axis, CurveKind curve) {
  MRC_REQUIRE(axis >= 0 && axis <= 2, "bad axis");
  MRC_REQUIRE(block_size >= 2, "bad block size");
  return sweep(dec, block_size, eb, a, axis, /*clamp=*/true, curve);
}

FieldF bezier_postprocess(const FieldF& dec, const BezierParams& p) {
  MRC_REQUIRE(p.block_size >= 2, "bad block size");
  FieldF f = sweep(dec, p.block_size, p.eb, p.ax, 0, true, p.curve);
  f = sweep(f, p.block_size, p.eb, p.ay, 1, true, p.curve);
  f = sweep(f, p.block_size, p.eb, p.az, 2, true, p.curve);
  return f;
}

FieldF bezier_unclamped(const FieldF& dec, index_t block_size) {
  MRC_REQUIRE(block_size >= 2, "bad block size");
  FieldF f = sweep(dec, block_size, 0.0, 1.0, 0, false, CurveKind::bezier_quadratic);
  f = sweep(f, block_size, 0.0, 1.0, 1, false, CurveKind::bezier_quadratic);
  f = sweep(f, block_size, 0.0, 1.0, 2, false, CurveKind::bezier_quadratic);
  return f;
}

}  // namespace mrc::postproc
