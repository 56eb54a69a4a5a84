// Every loop that exec::parallel_for spreads across the machine writes the
// same bytes on one lane as on min(n, hardware) lanes: each iteration owns
// its outputs (SSIM adds its per-plane partials in plane order). The
// one-lane run calls the function from inside a single-lane pool, where every
// nested exec::parallel_for runs inline.

#include <gtest/gtest.h>

#include <complex>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/zfpx/zfpx_compressor.h"
#include "core/workflow.h"
#include "exec/thread_pool.h"
#include "io/raw_io.h"
#include "metrics/fft.h"
#include "metrics/ssim.h"
#include "postproc/bezier.h"
#include "postproc/filters.h"
#include "render/volume_renderer.h"
#include "roi/roi_extract.h"
#include "simdata/generators.h"
#include "simdata/mini_warpx.h"
#include "uncertainty/error_model.h"
#include "uncertainty/probabilistic_mc.h"
#include "test_util.h"
#include "uq_reference.h"

namespace mrc {
namespace {

template <typename T>
std::span<const std::byte> bytes_of(const Field3D<T>& f) {
  return std::as_bytes(f.span());
}
std::span<const std::byte> bytes_of(const Bytes& b) { return b; }
std::span<const std::byte> bytes_of(const std::vector<metrics::cplx>& v) {
  return std::as_bytes(std::span(v));
}
std::span<const std::byte> bytes_of(const render::Image& img) {
  return std::as_bytes(std::span(img.pixels));
}
std::span<const std::byte> bytes_of(const double& v) {
  return std::as_bytes(std::span(&v, 1));
}

/// Runs `fn` directly and on one lane; the two results must match with memcmp.
template <typename Fn>
void expect_lane_invariant(const std::string& what, Fn fn) {
  const auto wide = fn();
  std::optional<decltype(wide)> one;
  exec::ThreadPool(1).parallel_for(1, [&](index_t) { one.emplace(fn()); });
  const auto a = bytes_of(wide);
  const auto b = bytes_of(*one);
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0) << what;
}

TEST(LaneInvariance, PortedLoopsMatchTheirOneLaneRun) {
  struct Case {
    Dim3 dims;  ///< powers of two: the generators draw a Gaussian random field
    std::uint64_t seed;
  };
  for (const Case& c : {Case{{16, 16, 16}, 1}, Case{{32, 8, 16}, 2}, Case{{8, 32, 32}, 3}}) {
    const std::string tag = std::to_string(c.dims.nx) + "x" + std::to_string(c.dims.ny) +
                            "x" + std::to_string(c.dims.nz) + " seed " +
                            std::to_string(c.seed) + ": ";
    expect_lane_invariant(tag + "fft_3d", [&] {
      Rng rng(c.seed);
      std::vector<metrics::cplx> v(static_cast<std::size_t>(c.dims.size()));
      for (auto& z : v) z = {rng.normal(), rng.normal()};
      metrics::fft_3d(v, c.dims, /*inverse=*/false);
      return v;
    });
    expect_lane_invariant(tag + "gaussian_random_field",
                          [&] { return sim::gaussian_random_field(c.dims, 3.0, c.seed); });
    expect_lane_invariant(tag + "warpx_ez", [&] { return sim::warpx_ez(c.dims, c.seed); });
    expect_lane_invariant(tag + "rayleigh_taylor",
                          [&] { return sim::rayleigh_taylor(c.dims, c.seed); });
    expect_lane_invariant(tag + "hurricane_field",
                          [&] { return sim::hurricane_field(c.dims, c.seed); });
    expect_lane_invariant(tag + "s3d_flame", [&] { return sim::s3d_flame(c.dims, c.seed); });
    expect_lane_invariant(tag + "MiniWarpX::step", [&] {
      sim::MiniWarpX::Params p;
      p.dims = {c.dims.nx, c.dims.ny, c.dims.nz + 6};
      p.seed = c.seed;
      sim::MiniWarpX w(p);
      for (int i = 0; i < 8; ++i) w.step();
      return w.ez();
    });

    const FieldF f = sim::rayleigh_taylor(c.dims, c.seed + 10);
    const FieldF g = test::noise_field(c.dims, 0.05, c.seed);
    FieldF noisy = f;
    for (index_t i = 0; i < f.size(); ++i) noisy[i] += g[i];
    expect_lane_invariant(tag + "median_filter3", [&] { return postproc::median_filter3(noisy); });
    expect_lane_invariant(tag + "gaussian_blur",
                          [&] { return postproc::gaussian_blur(noisy, 1.2); });
    expect_lane_invariant(tag + "anisotropic_diffusion",
                          [&] { return postproc::anisotropic_diffusion(noisy, 2, 0.3, 0.1); });
    postproc::BezierParams bp;
    bp.block_size = 4;
    bp.eb = 0.05;
    bp.ax = 0.6;
    bp.ay = 0.8;
    bp.az = 1.0;
    expect_lane_invariant(tag + "bezier_postprocess",
                          [&] { return postproc::bezier_postprocess(noisy, bp); });
    expect_lane_invariant(tag + "bezier_unclamped",
                          [&] { return postproc::bezier_unclamped(noisy, 4); });
    expect_lane_invariant(tag + "ssim", [&] { return metrics::ssim(f, noisy); });

    // Loops that size their pool by the work: chunked codecs, the uq kernels
    // and the renderer.
    LorenzoConfig lc;
    lc.chunks = 3;
    const LorenzoCompressor lorenzo(lc);
    ZfpxConfig zc;
    zc.chunks = 3;
    const ZfpxCompressor zfpx(zc);
    const Bytes ls = lorenzo.compress(noisy, 0.01);
    const Bytes zs = zfpx.compress(noisy, 0.01);
    expect_lane_invariant(tag + "lorenzo chunks", [&] { return lorenzo.compress(noisy, 0.01); });
    expect_lane_invariant(tag + "lorenzo decode", [&] { return lorenzo.decompress(ls); });
    expect_lane_invariant(tag + "zfpx chunks", [&] { return zfpx.compress(noisy, 0.01); });
    expect_lane_invariant(tag + "zfpx decode", [&] { return zfpx.decompress(zs); });
    const uq::ErrorModel model{0.001, 0.02, f.size()};
    expect_lane_invariant(tag + "crossing_probability",
                          [&] { return uq::crossing_probability(noisy, 2.0, model); });
    expect_lane_invariant(tag + "crossing_probability_mc", [&] {
      return uq::crossing_probability_mc(noisy, 2.0, model, 4, c.seed);
    });
    const render::TransferFunction tf = render::auto_transfer(f);
    expect_lane_invariant(tag + "volume_render", [&] { return render::volume_render(f, tf); });
  }
}

// insitu's passes outside the codec take their width as a parameter: ROI
// extraction, the uniform restore, the error fit (fixed chunks, so the sums
// do not depend on the width) and the crossing probability.

TEST(LaneInvariance, InsituPassesMatchAtOneAndFourLanes) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 41);
  const Bytes snapshot =
      api::compress_adaptive(f, api::Options::parse("roi_fraction=0.3,threads=4"));
  const MultiResField mr = api::restore_adaptive(snapshot, 4);
  const FieldF dec = mr.reconstruct_uniform(4);
  // A ragged last fit chunk: 64 Ki-sample chunks plus 1,234 samples short.
  const auto orig = f.span().first(static_cast<std::size_t>(f.size()) - 1234);
  const auto back = dec.span().first(orig.size());
  const auto fit_bits = [](const uq::ErrorModel& m) {
    return std::vector<double>{m.mean, m.sigma, static_cast<double>(m.n_samples)};
  };
  // The median, give or take 10%: the isovalue window keeps a subset.
  const double iso = roi::top_value_quantile(f.span(), 0.5);
  const double window = 0.1 * iso;
  const uq::ErrorModel model = uq::ErrorModel::fit(orig, back);

  std::vector<MultiResField> extracted;
  std::vector<FieldF> restored;
  std::vector<std::vector<double>> fits, near;
  std::vector<FieldD> prob;
  for (const int w : {1, 4}) {
    extracted.push_back(roi::extract_adaptive(f, 16, 0.3, w));
    restored.push_back(mr.reconstruct_uniform(w));
    fits.push_back(fit_bits(uq::ErrorModel::fit(orig, back, w)));
    near.push_back(fit_bits(uq::ErrorModel::fit_near_isovalue(orig, back, iso, window, 64, w)));
    prob.push_back(uq::crossing_probability(dec, iso, model, w));
  }
  const auto same = [](std::span<const std::byte> a, std::span<const std::byte> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  };
  ASSERT_EQ(extracted[0].levels.size(), 2u);
  ASSERT_EQ(extracted[1].levels.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_TRUE(same(bytes_of(extracted[0].levels[l].data), bytes_of(extracted[1].levels[l].data)))
        << "extract_adaptive level " << l << " data";
    EXPECT_TRUE(same(bytes_of(extracted[0].levels[l].mask), bytes_of(extracted[1].levels[l].mask)))
        << "extract_adaptive level " << l << " mask";
  }
  EXPECT_TRUE(same(bytes_of(restored[0]), bytes_of(restored[1]))) << "reconstruct_uniform";
  EXPECT_TRUE(same(std::as_bytes(std::span(fits[0])), std::as_bytes(std::span(fits[1]))))
      << "ErrorModel::fit";
  EXPECT_TRUE(same(std::as_bytes(std::span(near[0])), std::as_bytes(std::span(near[1]))))
      << "fit_near_isovalue";
  EXPECT_LT(near[0][2], 0.5 * static_cast<double>(orig.size()));
  EXPECT_GT(near[0][2], 64.0);
  EXPECT_TRUE(same(bytes_of(prob[0]), bytes_of(prob[1]))) << "crossing_probability";
}

// The multi-resolution snapshot writers take their width from the config:
// per-level streams encode on that many lanes and must not depend on it.

TEST(LaneInvariance, AdaptiveSnapshotIsTheSameOnFourLanes) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 31);
  api::Options opt = api::Options::parse("roi_fraction=0.3,threads=1");
  const Bytes one = api::compress_adaptive(f, opt);
  opt.threads = 4;
  EXPECT_EQ(api::compress_adaptive(f, opt), one);
}

TEST(LaneInvariance, SnapshotFileIsTheSameOnFourLanes) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 37);
  const MultiResField mr = roi::extract_adaptive(f, /*block_size=*/16, /*roi_fraction=*/0.3);
  const double eb = f.value_range() * 1e-3;
  const auto dir = std::filesystem::temp_directory_path();
  std::vector<Bytes> files;
  for (const int threads : {1, 4}) {
    sz3mr::Config cfg = sz3mr::ours_pad_eb();
    cfg.threads = threads;
    const std::string path =
        (dir / ("mrc_lanes_" + std::to_string(threads) + ".snap")).string();
    (void)workflow::write_snapshot(mr, eb, cfg, path);
    files.push_back(io::read_bytes(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_EQ(files[1], files[0]);
}

}  // namespace
}  // namespace mrc
