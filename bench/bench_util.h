#pragma once

// Shared plumbing for the paper-reproduction benches: scaled dataset
// constructors, matched-compression-ratio search, multi-resolution quality
// metrics, and table formatting. Every bench prints the corresponding
// paper table/figure rows and our measured values side by side where the
// paper gives absolute numbers.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/sz3mr.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "obs/obs.h"
#include "postproc/sampler.h"
#include "simdata/generators.h"

namespace mrc::bench {

// The one timing helper benches use: obs::ScopedTimer sections both return
// wall seconds and (when obs is enabled, e.g. under mrcc --trace=) land as
// spans in the same Perfetto timeline as the production codec/container/
// pool spans they bracket.
using ScopedTimer = obs::ScopedTimer;

inline void print_title(const char* experiment, const char* paper_ref,
                        const char* workload) {
  std::printf("==============================================================\n");
  std::printf("%s  (paper: %s)\n", experiment, paper_ref);
  std::printf("workload: %s  [scale %d%%; MRC_FULL=1 for paper-scale]\n", workload,
              scale_percent());
  std::printf("==============================================================\n");
}

/// Paper-scale extents for each dataset (Table III), scaled by MRC_SCALE.
inline Dim3 nyx_dims() { return scaled({512, 512, 512}); }
inline Dim3 warpx_dims() { return scaled({256, 256, 2048}); }
inline Dim3 rt_dims() { return scaled({512, 512, 512}); }
inline Dim3 hurricane_dims() { return scaled({512, 512, 128}); }  // 500^2x100 rounded to pow2
inline Dim3 s3d_dims() { return scaled({512, 512, 512}); }

/// Finds an error bound whose compressed stream hits `target_cr` within a
/// few percent. `bytes_of_eb` runs one compression; CR is assumed monotone
/// in eb. Returns the chosen eb.
inline double find_eb_for_cr(const std::function<std::size_t(double)>& bytes_of_eb,
                             index_t n_values, double target_cr, double eb_init,
                             int iters = 9) {
  auto cr_of = [&](double eb) {
    return static_cast<double>(n_values) * sizeof(float) /
           static_cast<double>(bytes_of_eb(eb));
  };
  double lo = eb_init, hi = eb_init;
  double cr = cr_of(eb_init);
  int guard = 0;
  while (cr < target_cr && guard++ < 24) {
    hi *= 2.0;
    cr = cr_of(hi);
    lo = cr < target_cr ? hi : lo;
  }
  guard = 0;
  while (cr_of(lo) > target_cr && guard++ < 24) lo /= 2.0;
  for (int i = 0; i < iters; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (cr_of(mid) < target_cr)
      lo = mid;
    else
      hi = mid;
  }
  return std::sqrt(lo * hi);
}

/// PSNR over the *stored* samples of a hierarchy (per-level valid cells),
/// with the dynamic range taken over all stored reference samples — the
/// aggregate quality number used for the multi-dataset RD figures.
inline double multires_psnr(const MultiResField& ref, const MultiResField& dec) {
  std::vector<float> a, b;
  for (std::size_t l = 0; l < ref.levels.size(); ++l) {
    const auto& rl = ref.levels[l];
    const auto& dl = dec.levels[l];
    for (index_t i = 0; i < rl.data.size(); ++i)
      if (rl.mask[i]) {
        a.push_back(rl.data[i]);
        b.push_back(dl.data[i]);
      }
  }
  return metrics::error_stats(std::span<const float>(a), std::span<const float>(b)).psnr;
}

/// PSNR over one level's valid samples.
inline double level_psnr(const LevelData& ref, const LevelData& dec) {
  std::vector<float> a, b;
  for (index_t i = 0; i < ref.data.size(); ++i)
    if (ref.mask[i]) {
      a.push_back(ref.data[i]);
      b.push_back(dec.data[i]);
    }
  return metrics::error_stats(std::span<const float>(a), std::span<const float>(b)).psnr;
}

struct RdPoint {
  double cr = 0.0;
  double psnr = 0.0;
};

/// Rate-distortion curve of one sz3mr preset over a whole hierarchy.
inline std::vector<RdPoint> rd_curve(const MultiResField& mr,
                                     std::span<const double> ebs,
                                     const sz3mr::Config& cfg) {
  std::vector<RdPoint> out;
  for (const double eb : ebs) {
    const auto streams = sz3mr::compress_multires(mr, eb, cfg);
    const auto dec = sz3mr::decompress_multires(streams, cfg.threads);
    out.push_back({sz3mr::multires_ratio(mr, streams), multires_psnr(mr, dec)});
  }
  return out;
}

/// Rate-distortion curve of one preset over a single level.
inline std::vector<RdPoint> rd_curve_level(const LevelData& lev, index_t unit,
                                           std::span<const double> ebs,
                                           const sz3mr::Config& cfg) {
  std::vector<RdPoint> out;
  for (const double eb : ebs) {
    const auto stream = sz3mr::compress_level(lev, unit, eb, cfg);
    const auto dec = sz3mr::decompress_level(stream);
    const double cr = static_cast<double>(lev.valid_count()) * sizeof(float) /
                      static_cast<double>(stream.size());
    out.push_back({cr, level_psnr(lev, dec)});
  }
  return out;
}

/// "AMRIC-SZ2"/ZFP-style block-wise compression of one multi-resolution
/// level: stack-merge the unit blocks (AMRIC's arrangement), compress the
/// merged array with a block-wise codec, and optionally Bézier-post-process
/// with sampled intensities before scattering back. Returns matched
/// before/after quality at one stream size.
struct BlockwiseLevelResult {
  double cr = 0.0;
  double psnr_ori = 0.0;
  double psnr_post = 0.0;
};

inline BlockwiseLevelResult blockwise_level_roundtrip(
    const LevelData& lev, index_t unit, const Compressor& comp, double eb,
    index_t pp_block, std::span<const double> candidates) {
  const auto set = scan_unit_blocks(lev, unit);
  BlockwiseLevelResult r;
  if (set.block_count() == 0) return r;
  const FieldF merged = gather_stack(lev, set);
  const auto stream = comp.compress(merged, eb);
  r.cr = static_cast<double>(lev.valid_count()) * sizeof(float) /
         static_cast<double>(stream.size());
  const FieldF dec = comp.decompress(stream);

  auto psnr_of = [&](const FieldF& m) {
    LevelData out;
    out.ratio = lev.ratio;
    out.data = FieldF(lev.data.dims(), 0.0f);
    out.mask = MaskField(lev.mask.dims(), 0);
    scatter_stack(m, set, out);
    return level_psnr(lev, out);
  };
  r.psnr_ori = psnr_of(dec);

  const auto plan = postproc::default_sampling(merged.dims(), pp_block);
  const auto samples = postproc::draw_sample_blocks(merged, plan.block_edge, plan.count, 42);
  const auto tuned = postproc::tune_intensity(samples, comp, eb, pp_block, candidates);
  const FieldF post = postproc::bezier_postprocess(
      dec, {pp_block, eb, tuned.ax, tuned.ay, tuned.az});
  r.psnr_post = psnr_of(post);
  return r;
}

inline void print_rd_table(const char* dataset,
                           const std::vector<std::pair<std::string, std::vector<RdPoint>>>&
                               curves) {
  std::printf("\n-- %s: rate-distortion (CR : PSNR dB) --\n", dataset);
  for (const auto& [name, pts] : curves) {
    std::printf("%-18s", name.c_str());
    for (const auto& p : pts) std::printf("  %7.1f:%6.2f", p.cr, p.psnr);
    std::printf("\n");
  }
}

}  // namespace mrc::bench
