#include "render/volume_renderer.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "exec/thread_pool.h"
#include "grid/field.h"
#include "metrics/ssim.h"
#include "serve/dataset.h"
#include "tiled/tiled.h"

namespace mrc::render {

namespace {

/// Cool-to-warm (blue -> white -> red) diverging color map on t in [0, 1].
std::array<double, 3> cool_warm(double t) {
  t = std::clamp(t, 0.0, 1.0);
  const std::array<double, 3> cool{0.23, 0.30, 0.75};
  const std::array<double, 3> mid{0.87, 0.87, 0.87};
  const std::array<double, 3> warm{0.71, 0.016, 0.15};
  std::array<double, 3> c;
  if (t < 0.5) {
    const double u = t * 2.0;
    for (int i = 0; i < 3; ++i) c[static_cast<std::size_t>(i)] = cool[static_cast<std::size_t>(i)] * (1 - u) + mid[static_cast<std::size_t>(i)] * u;
  } else {
    const double u = (t - 0.5) * 2.0;
    for (int i = 0; i < 3; ++i) c[static_cast<std::size_t>(i)] = mid[static_cast<std::size_t>(i)] * (1 - u) + warm[static_cast<std::size_t>(i)] * u;
  }
  return c;
}

}  // namespace

TransferFunction auto_transfer(const FieldF& f, double opacity_scale) {
  const auto [lo, hi] = f.min_max();
  TransferFunction tf;
  tf.lo = lo;
  tf.hi = hi > lo ? hi : lo + 1.0;
  tf.opacity_scale = opacity_scale;
  return tf;
}

Image volume_render(const FieldF& f, const TransferFunction& tf) {
  const Dim3 d = f.dims();
  Image img;
  img.width = d.nx;
  img.height = d.ny;
  img.pixels.assign(static_cast<std::size_t>(d.nx * d.ny), {0, 0, 0});
  const double inv_range = 1.0 / (tf.hi - tf.lo);

  // Each pixel depends only on its own column, so any split of the rows is
  // exact.
  exec::parallel_for(d.ny, [&](index_t y) {
    for (index_t x = 0; x < d.nx; ++x) {
      // Front-to-back compositing along +z.
      double r = 0, g = 0, b = 0, alpha = 0;
      for (index_t z = 0; z < d.nz && alpha < 0.995; ++z) {
        const double t = (static_cast<double>(f.at(x, y, z)) - tf.lo) * inv_range;
        const double sample_alpha = std::clamp(t, 0.0, 1.0) * tf.opacity_scale;
        if (sample_alpha <= 0.0) continue;
        const auto c = cool_warm(t);
        const double w = (1.0 - alpha) * sample_alpha;
        r += w * c[0];
        g += w * c[1];
        b += w * c[2];
        alpha += w;
      }
      img.at(x, y) = {static_cast<std::uint8_t>(std::clamp(r, 0.0, 1.0) * 255.0),
                      static_cast<std::uint8_t>(std::clamp(g, 0.0, 1.0) * 255.0),
                      static_cast<std::uint8_t>(std::clamp(b, 0.0, 1.0) * 255.0)};
    }
  });
  return img;
}

Image volume_render(serve::Dataset& ds, int level, const TransferFunction& tf) {
  const FieldF f = ds.read_region(level, tiled::full_box(ds.dims(level)));
  return volume_render(f, tf);
}

Image volume_render(serve::Dataset& ds, const TransferFunction& tf) {
  return volume_render(ds, /*level=*/0, tf);
}

Image overlay_probability(const Image& base, const FieldD& prob, double threshold) {
  Image out = base;
  const Dim3 pd = prob.dims();
  const index_t w = std::min(out.width, pd.nx);
  const index_t h = std::min(out.height, pd.ny);
  for (index_t y = 0; y < h; ++y)
    for (index_t x = 0; x < w; ++x) {
      // Column-max probability — "could the isosurface pass through here?"
      double pmax = 0.0;
      for (index_t z = 0; z < pd.nz; ++z) pmax = std::max(pmax, prob.at(x, y, z));
      if (pmax < threshold) continue;
      auto& px = out.at(x, y);
      const double blend = std::min(1.0, pmax);
      px[0] = static_cast<std::uint8_t>(px[0] * (1 - blend) + 255.0 * blend);
      px[1] = static_cast<std::uint8_t>(px[1] * (1 - blend));
      px[2] = static_cast<std::uint8_t>(px[2] * (1 - blend));
    }
  return out;
}

double image_ssim(const Image& a, const Image& b) {
  MRC_REQUIRE(a.width == b.width && a.height == b.height, "image size mismatch");
  // Luminance-only SSIM via the volume SSIM machinery on a 2-D field.
  FieldF fa({a.width, a.height, 1});
  FieldF fb({a.width, a.height, 1});
  for (index_t y = 0; y < a.height; ++y)
    for (index_t x = 0; x < a.width; ++x) {
      const auto& pa = a.at(x, y);
      const auto& pb = b.at(x, y);
      fa.at(x, y, 0) = 0.299f * pa[0] + 0.587f * pa[1] + 0.114f * pa[2];
      fb.at(x, y, 0) = 0.299f * pb[0] + 0.587f * pb[1] + 0.114f * pb[2];
    }
  metrics::SsimConfig cfg;
  cfg.window = 8;
  cfg.stride = 1;
  return metrics::ssim(fa, fb, cfg);
}

void write_ppm(const Image& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MRC_REQUIRE(out.good(), "cannot open for writing: " + path);
  out << "P6\n" << img.width << ' ' << img.height << "\n255\n";
  out.write(reinterpret_cast<const char*>(img.pixels.data()),
            static_cast<std::streamsize>(img.pixels.size() * 3));
  MRC_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace mrc::render
