#include "grid/field_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/thread_pool.h"

namespace mrc {

FieldF restrict_average(const FieldF& fine, index_t factor, int threads) {
  MRC_REQUIRE(factor >= 1, "bad restriction factor");
  const Dim3 fd = fine.dims();
  MRC_REQUIRE(fd.nx % factor == 0 && fd.ny % factor == 0 && fd.nz % factor == 0,
              "extents not divisible by restriction factor");
  FieldF coarse(blocks_for(fd, factor));
  const index_t nz = coarse.dims().nz;
  exec::for_slabs(nz, exec::slab_count(nz, threads), [&](index_t, index_t z0, index_t z1) {
    restrict_slab(fine, coarse, factor, z0, z1);
  }, threads);
  return coarse;
}

FieldF restrict_half(const FieldF& fine) {
  MRC_REQUIRE(!fine.empty(), "restrict_half of empty field");
  FieldF coarse(blocks_for(fine.dims(), 2));
  restrict_slab(fine, coarse, 2, 0, coarse.dims().nz);
  return coarse;
}

void restrict_slab(const FieldF& fine, FieldF& coarse, index_t factor, index_t z0,
                   index_t z1) {
  const Dim3 fd = fine.dims();
  const Dim3 cd = coarse.dims();
  MRC_REQUIRE(factor >= 1 && cd == blocks_for(fd, factor),
              "restrict_slab: coarse extents mismatch");
  MRC_REQUIRE(z0 >= 0 && z0 <= z1 && z1 <= cd.nz, "restrict_slab: bad slab");
  for (index_t z = z0; z < z1; ++z) {
    const index_t k0 = factor * z, k1 = std::min(k0 + factor, fd.nz);
    for (index_t y = 0; y < cd.ny; ++y) {
      const index_t j0 = factor * y, j1 = std::min(j0 + factor, fd.ny);
      for (index_t x = 0; x < cd.nx; ++x) {
        const index_t i0 = factor * x, i1 = std::min(i0 + factor, fd.nx);
        double sum = 0.0;
        for (index_t k = k0; k < k1; ++k)
          for (index_t j = j0; j < j1; ++j) {
            const float* row = &fine.at(0, j, k);
            for (index_t i = i0; i < i1; ++i) sum += row[i];
          }
        // restrict_average's 1/factor^3; restrict_half's clipped counts are
        // powers of two, whose exact reciprocals give the bits of dividing.
        coarse.at(x, y, z) = static_cast<float>(
            sum * (1.0 / static_cast<double>((i1 - i0) * (j1 - j0) * (k1 - k0))));
      }
    }
  }
}

FieldF prolong_nearest(const FieldF& coarse, Dim3 fine_dims) {
  const Dim3 cd = coarse.dims();
  FieldF fine(fine_dims);
  for (index_t z = 0; z < fine_dims.nz; ++z) {
    const index_t cz = std::min(z * cd.nz / fine_dims.nz, cd.nz - 1);
    for (index_t y = 0; y < fine_dims.ny; ++y) {
      const index_t cy = std::min(y * cd.ny / fine_dims.ny, cd.ny - 1);
      for (index_t x = 0; x < fine_dims.nx; ++x) {
        const index_t cx = std::min(x * cd.nx / fine_dims.nx, cd.nx - 1);
        fine.at(x, y, z) = coarse.at(cx, cy, cz);
      }
    }
  }
  return fine;
}

namespace {

/// Cell-centred alignment: fine sample x of an fd-sample axis sits at coarse
/// coordinate (x + 0.5) * (cd / fd) - 0.5; its lower neighbour is clamped.
double coarse_coord(index_t cd, index_t fd, index_t x) {
  return (static_cast<double>(x) + 0.5) * (static_cast<double>(cd) / static_cast<double>(fd)) -
         0.5;
}
index_t lower_tap(double g, index_t cd) {
  return std::clamp(static_cast<index_t>(std::floor(g)), index_t{0}, cd - 1);
}

/// Taps of fine samples [lo, lo + n) along one axis: coarse neighbours i0/i1,
/// relative to the coarse window origin `wo`, and weights w0 = 1 - f, w1 = f.
struct AxisTaps {
  std::vector<index_t> i0, i1;
  std::vector<double> w0, w1;
};
AxisTaps axis_taps(index_t cd, index_t fd, index_t lo, index_t n, index_t wo) {
  AxisTaps t;
  for (index_t x = lo; x < lo + n; ++x) {
    const double g = coarse_coord(cd, fd, x);
    const index_t i0 = lower_tap(g, cd);
    const double f = std::clamp(g - static_cast<double>(i0), 0.0, 1.0);
    t.i0.push_back(i0 - wo);
    t.i1.push_back(std::clamp(i0 + 1, index_t{0}, cd - 1) - wo);
    t.w0.push_back(1 - f);
    t.w1.push_back(f);
  }
  return t;
}

/// The trilinear prolongation kernel: evaluates the fine window [fo, fo + fe)
/// of an fd grid from `window`, the box of the cd coarse grid at `wo`, and
/// hands each fine x-row to row(y, z, values) (window-relative y, z) in
/// ascending z, then y. Per sample it computes, in this order,
///   X(cy, cz) = c(x0, cy, cz) * (1 - fx) + c(x1, cy, cz) * fx
///   v = float((X(y0, z0) * (1 - fy) + X(y1, z0) * fy) * (1 - fz) +
///             (X(y0, z1) * (1 - fy) + X(y1, z1) * fy) * fz)
/// with each coarse row's X computed once per coarse plane and shared by
/// every fine row that reads it.
template <class RowSink>
void prolong_rows(const FieldF& window, Coord3 wo, Dim3 cd, Dim3 fd, Coord3 fo, Dim3 fe,
                  RowSink&& row) {
  if (fe.empty()) return;
  const AxisTaps tx = axis_taps(cd.nx, fd.nx, fo.x, fe.nx, wo.x);
  const AxisTaps ty = axis_taps(cd.ny, fd.ny, fo.y, fe.ny, wo.y);
  const AxisTaps tz = axis_taps(cd.nz, fd.nz, fo.z, fe.nz, wo.z);
  const auto nx = static_cast<std::size_t>(fe.nx);
  const index_t y_lo = ty.i0.front(), rows = ty.i1.back() + 1 - y_lo;
  const std::size_t plane_size = static_cast<std::size_t>(rows) * nx;
  // Two-plane cache: coarse plane cz lives in slot cz & 1, so the planes z0
  // and z1 (= z0 or z0 + 1) of one fine z never evict each other, and with
  // ascending z each plane is x-interpolated once.
  std::vector<double> cache(2 * plane_size);
  index_t held[2] = {-1, -1};
  auto plane = [&](index_t cz) {
    double* p = cache.data() + static_cast<std::size_t>(cz & 1) * plane_size;
    if (held[cz & 1] == cz) return p;
    held[cz & 1] = cz;
    for (index_t j = 0; j < rows; ++j) {
      const float* c = &window.at(0, y_lo + j, cz);
      double* out = p + static_cast<std::size_t>(j) * nx;
      for (std::size_t x = 0; x < nx; ++x)
        out[x] = c[tx.i0[x]] * tx.w0[x] + c[tx.i1[x]] * tx.w1[x];
    }
    return p;
  };
  std::vector<float> values(nx);
  for (std::size_t z = 0; z < tz.w0.size(); ++z) {
    const double* p0 = plane(tz.i0[z]);
    const double* p1 = plane(tz.i1[z]);
    const double wz0 = tz.w0[z], wz1 = tz.w1[z];
    for (std::size_t y = 0; y < ty.w0.size(); ++y) {
      const auto r0 = static_cast<std::size_t>(ty.i0[y] - y_lo) * nx;
      const auto r1 = static_cast<std::size_t>(ty.i1[y] - y_lo) * nx;
      const double *a0 = p0 + r0, *a1 = p0 + r1, *b0 = p1 + r0, *b1 = p1 + r1;
      const double wy0 = ty.w0[y], wy1 = ty.w1[y];
      float* out = values.data();
      for (std::size_t x = 0; x < nx; ++x)
        out[x] = static_cast<float>((a0[x] * wy0 + a1[x] * wy1) * wz0 +
                                    (b0[x] * wy0 + b1[x] * wy1) * wz1);
      row(static_cast<index_t>(y), static_cast<index_t>(z), out);
    }
  }
}

}  // namespace

FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims) {
  FieldF fine(fine_dims);
  prolong_trilinear_rows(coarse, fine_dims, 0, fine_dims.nz,
                         [&](index_t y, index_t z, const float* v) {
                           std::copy_n(v, fine_dims.nx, &fine.at(0, y, z));
                         });
  return fine;
}

void prolong_trilinear_rows(const FieldF& coarse, Dim3 fine_dims, index_t z0, index_t z1,
                            const ProlongRowSink& row) {
  MRC_REQUIRE(z0 >= 0 && z0 <= z1 && z1 <= fine_dims.nz, "bad prolongation slab");
  prolong_rows(coarse, {}, coarse.dims(), fine_dims, {0, 0, z0},
               {fine_dims.nx, fine_dims.ny, z1 - z0},
               [&](index_t y, index_t z, const float* v) { row(y, z0 + z, v); });
}

SupportBox prolong_support(Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                           Dim3 fine_extent) {
  MRC_REQUIRE(fine_extent.nx >= 1 && fine_extent.ny >= 1 && fine_extent.nz >= 1,
              "prolong_support: empty fine window");
  MRC_REQUIRE(fine_origin.x >= 0 && fine_origin.y >= 0 && fine_origin.z >= 0 &&
                  fine_origin.x + fine_extent.nx <= fine_dims.nx &&
                  fine_origin.y + fine_extent.ny <= fine_dims.ny &&
                  fine_origin.z + fine_extent.nz <= fine_dims.nz,
              "prolong_support: fine window outside grid");
  // g(x) is monotone in x, so the first sample's i0 and the last sample's i1
  // bound the footprint along each axis.
  auto axis = [](index_t cd, index_t fd, index_t lo, index_t n, index_t& out_lo,
                 index_t& out_n) {
    const index_t first = lower_tap(coarse_coord(cd, fd, lo), cd);
    const index_t last =
        std::clamp(lower_tap(coarse_coord(cd, fd, lo + n - 1), cd) + 1, index_t{0}, cd - 1);
    out_lo = first;
    out_n = last + 1 - first;
  };
  SupportBox s;
  axis(coarse_dims.nx, fine_dims.nx, fine_origin.x, fine_extent.nx, s.origin.x,
       s.extent.nx);
  axis(coarse_dims.ny, fine_dims.ny, fine_origin.y, fine_extent.ny, s.origin.y,
       s.extent.ny);
  axis(coarse_dims.nz, fine_dims.nz, fine_origin.z, fine_extent.nz, s.origin.z,
       s.extent.nz);
  return s;
}

FieldF prolong_trilinear_region(const FieldF& coarse_window, Coord3 window_origin,
                                Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                                Dim3 fine_extent) {
  FieldF fine(fine_extent);
  prolong_trilinear_region_rows(coarse_window, window_origin, coarse_dims, fine_dims,
                                fine_origin, fine_extent,
                                [&](index_t y, index_t z, const float* v) {
                                  std::copy_n(v, fine_extent.nx, &fine.at(0, y, z));
                                });
  return fine;
}

void prolong_trilinear_region_rows(const FieldF& coarse_window, Coord3 window_origin,
                                   Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                                   Dim3 fine_extent, const ProlongRowSink& row) {
  const SupportBox need =
      prolong_support(coarse_dims, fine_dims, fine_origin, fine_extent);
  const Dim3 wd = coarse_window.dims();
  MRC_REQUIRE(window_origin.x <= need.origin.x && window_origin.y <= need.origin.y &&
                  window_origin.z <= need.origin.z &&
                  window_origin.x + wd.nx >= need.origin.x + need.extent.nx &&
                  window_origin.y + wd.ny >= need.origin.y + need.extent.ny &&
                  window_origin.z + wd.nz >= need.origin.z + need.extent.nz,
              "prolong_trilinear_region: coarse window does not cover the support");
  prolong_rows(coarse_window, window_origin, coarse_dims, fine_dims, fine_origin,
               fine_extent, row);
}

double prolong_error_slab(const FieldF& coarse, const FieldF& fine, index_t z0,
                          index_t z1) {
  const Dim3 fd = fine.dims();
  double err = 0.0;
  prolong_trilinear_rows(coarse, fd, z0, z1, [&](index_t y, index_t z, const float* v) {
    const float* f = &fine.at(0, y, z);
    for (index_t x = 0; x < fd.nx; ++x)
      err = std::max(err,
                     std::abs(static_cast<double>(v[x]) - static_cast<double>(f[x])));
  });
  return err;
}

FieldF gradient_magnitude(const FieldF& f) {
  MRC_REQUIRE(!f.empty(), "gradient_magnitude of empty field");
  const Dim3 d = f.dims();
  FieldF g(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        auto diff = [&](index_t lo_x, index_t lo_y, index_t lo_z, index_t hi_x,
                        index_t hi_y, index_t hi_z, index_t span) {
          return span == 0 ? 0.0
                           : (static_cast<double>(f.at(hi_x, hi_y, hi_z)) -
                              static_cast<double>(f.at(lo_x, lo_y, lo_z))) /
                                 static_cast<double>(span);
        };
        const index_t xm = std::max<index_t>(x - 1, 0), xp = std::min(x + 1, d.nx - 1);
        const index_t ym = std::max<index_t>(y - 1, 0), yp = std::min(y + 1, d.ny - 1);
        const index_t zm = std::max<index_t>(z - 1, 0), zp = std::min(z + 1, d.nz - 1);
        const double gx = diff(xm, y, z, xp, y, z, xp - xm);
        const double gy = diff(x, ym, z, x, yp, z, yp - ym);
        const double gz = diff(x, y, zm, x, y, zp, zp - zm);
        g.at(x, y, z) = static_cast<float>(std::sqrt(gx * gx + gy * gy + gz * gz));
      }
  return g;
}

FieldF extract_region(const FieldF& f, Coord3 origin, Dim3 extent) {
  MRC_REQUIRE(origin.x >= 0 && origin.y >= 0 && origin.z >= 0 &&
                  origin.x + extent.nx <= f.dims().nx &&
                  origin.y + extent.ny <= f.dims().ny &&
                  origin.z + extent.nz <= f.dims().nz,
              "region outside field");
  FieldF r(extent);
  for (index_t z = 0; z < extent.nz; ++z)
    for (index_t y = 0; y < extent.ny; ++y)
      for (index_t x = 0; x < extent.nx; ++x)
        r.at(x, y, z) = f.at(origin.x + x, origin.y + y, origin.z + z);
  return r;
}

void insert_region(FieldF& f, Coord3 origin, const FieldF& region) {
  const Dim3 e = region.dims();
  MRC_REQUIRE(origin.x >= 0 && origin.y >= 0 && origin.z >= 0 &&
                  origin.x + e.nx <= f.dims().nx && origin.y + e.ny <= f.dims().ny &&
                  origin.z + e.nz <= f.dims().nz,
              "region outside field");
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t x = 0; x < e.nx; ++x)
        f.at(origin.x + x, origin.y + y, origin.z + z) = region.at(x, y, z);
}

FieldF central_slice_z(const FieldF& f) {
  const Dim3 d = f.dims();
  return extract_region(f, {0, 0, d.nz / 2}, {d.nx, d.ny, 1});
}

std::vector<double> block_value_ranges(const FieldF& f, index_t block, int threads) {
  MRC_REQUIRE(block >= 1, "bad block size");
  const Dim3 d = f.dims();
  const Dim3 nb = blocks_for(d, block);
  std::vector<double> ranges(static_cast<std::size_t>(nb.size()));
  exec::for_slabs(nb.nz, exec::slab_count(nb.nz, threads), [&](index_t, index_t bz0, index_t bz1) {
    for (index_t bz = bz0; bz < bz1; ++bz)
      for (index_t by = 0; by < nb.ny; ++by)
        for (index_t bx = 0; bx < nb.nx; ++bx) {
          float lo = f.at(bx * block, by * block, bz * block);
          float hi = lo;
          const index_t ex = std::min(block, d.nx - bx * block);
          const index_t ey = std::min(block, d.ny - by * block);
          const index_t ez = std::min(block, d.nz - bz * block);
          for (index_t k = 0; k < ez; ++k)
            for (index_t j = 0; j < ey; ++j) {
              const float* row = &f.at(bx * block, by * block + j, bz * block + k);
              for (index_t i = 0; i < ex; ++i) {
                lo = std::min(lo, row[i]);
                hi = std::max(hi, row[i]);
              }
            }
          ranges[static_cast<std::size_t>(nb.index(bx, by, bz))] =
              static_cast<double>(hi) - static_cast<double>(lo);
        }
  }, threads);
  return ranges;
}

}  // namespace mrc
