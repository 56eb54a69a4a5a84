// End-to-end integration sweep: every synthetic dataset through every codec
// (and the post-processing and workflow layers on top), verifying the
// invariants a downstream user relies on regardless of data/codec pairing:
//   * the absolute error bound holds,
//   * tuned post-processing never degrades sampled quality,
//   * tighter bounds give equal-or-better SSIM,
//   * the adaptive workflow round-trips its ROI regions within bound.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "compressors/registry.h"
#include "core/workflow.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "postproc/bezier.h"
#include "postproc/sampler.h"
#include "roi/roi_extract.h"
#include "simdata/generators.h"
#include "test_util.h"

namespace mrc {
namespace {

struct IntegrationCase {
  int dataset;  // 0 nyx, 1 warpx, 2 rt, 3 hurricane, 4 s3d
  int codec;    // 0 interp, 1 lorenzo, 2 zfpx
};

FieldF make_dataset(int id) {
  switch (id) {
    case 0: return sim::nyx_density({64, 64, 64}, 7);
    case 1: return sim::warpx_ez({32, 32, 256}, 11);
    case 2: return sim::rayleigh_taylor({64, 64, 64}, 13);
    case 3: return sim::hurricane_field({64, 64, 32}, 19);
    default: return sim::s3d_flame({64, 64, 64}, 29);
  }
}

const char* dataset_name(int id) {
  switch (id) {
    case 0: return "nyx";
    case 1: return "warpx";
    case 2: return "rt";
    case 3: return "hurricane";
    default: return "s3d";
  }
}

const char* codec_name(int id) {
  switch (id) {
    case 0: return "interp";
    case 1: return "lorenzo";
    default: return "zfpx";
  }
}

std::unique_ptr<Compressor> make_codec(int id) { return registry().make(codec_name(id)); }

class DatasetCodecSweep : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(DatasetCodecSweep, BoundHoldsAtThreeScales) {
  const auto [dataset, codec_id] = GetParam();
  const FieldF f = make_dataset(dataset);
  const auto codec = make_codec(codec_id);
  for (const double rel : {1e-2, 1e-4, 1e-6}) {
    const double eb = f.value_range() * rel;
    const auto rt = round_trip(*codec, f, eb);
    ASSERT_LE(test::max_abs_err(f, rt.reconstructed), eb * (1 + 1e-9)) << "rel " << rel;
  }
}

TEST_P(DatasetCodecSweep, TighterBoundNeverWorseSsim) {
  const auto [dataset, codec_id] = GetParam();
  const FieldF f = make_dataset(dataset);
  const auto codec = make_codec(codec_id);
  const double loose = metrics::ssim(
      f, round_trip(*codec, f, f.value_range() * 1e-2).reconstructed, {7, 4, 0.01, 0.03});
  const double tight = metrics::ssim(
      f, round_trip(*codec, f, f.value_range() * 1e-5).reconstructed, {7, 4, 0.01, 0.03});
  EXPECT_GE(tight, loose - 1e-6);
}

TEST_P(DatasetCodecSweep, TunedPostprocessNeverDegradesSamples) {
  const auto [dataset, codec_id] = GetParam();
  const FieldF f = make_dataset(dataset);
  const auto codec = make_codec(codec_id);
  const double eb = f.value_range() * 2e-3;
  const index_t block_edge = registry().find(codec_name(codec_id))->block_edge;
  const index_t block = block_edge > 0 ? block_edge : index_t{6};
  const auto candidates =
      codec_id == 2 ? postproc::zfp_candidates() : postproc::sz_candidates();
  const auto samples = postproc::draw_sample_blocks(f, 4 * block, 4, 17);
  const auto tuned = postproc::tune_intensity(samples, *codec, eb, block, candidates);
  EXPECT_LE(tuned.tuned_mse, tuned.base_mse * (1 + 1e-9))
      << dataset_name(dataset) << "+" << codec_name(codec_id);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, DatasetCodecSweep,
    ::testing::Values(IntegrationCase{0, 0}, IntegrationCase{0, 1}, IntegrationCase{0, 2},
                      IntegrationCase{1, 0}, IntegrationCase{1, 1}, IntegrationCase{1, 2},
                      IntegrationCase{2, 0}, IntegrationCase{2, 1}, IntegrationCase{2, 2},
                      IntegrationCase{3, 0}, IntegrationCase{3, 1}, IntegrationCase{3, 2},
                      IntegrationCase{4, 0}, IntegrationCase{4, 1}, IntegrationCase{4, 2}),
    [](const auto& info) {
      return std::string(dataset_name(info.param.dataset)) + "_" +
             codec_name(info.param.codec);
    });

// ---------------------------------------------------------------------------
// Workflow-level integration on every dataset.
// ---------------------------------------------------------------------------

class WorkflowSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorkflowSweep, AdaptiveRoundTripWithinBoundOnRoi) {
  const FieldF f = make_dataset(GetParam());
  const double eb = f.value_range() * 1e-4;
  const auto adaptive = roi::extract_adaptive(f, /*block_size=*/16, /*roi_fraction=*/0.3);
  const auto streams = sz3mr::compress_multires(adaptive, eb, sz3mr::ours_pad_eb());
  const auto dec = sz3mr::decompress_multires(streams);
  const auto& fine_in = adaptive.levels[0];
  for (index_t i = 0; i < fine_in.data.size(); ++i)
    if (fine_in.mask[i]) {
      ASSERT_LE(std::abs(static_cast<double>(fine_in.data[i]) - dec.levels[0].data[i]),
                eb * (1 + 1e-12));
    }
  EXPECT_GT(sz3mr::multires_ratio(adaptive, streams), 1.0);
}

TEST_P(WorkflowSweep, ReconstructionSsimHighAtTightBound) {
  const FieldF f = make_dataset(GetParam());
  const auto adaptive = roi::extract_adaptive(f, /*block_size=*/16, /*roi_fraction=*/0.5);
  auto dec = sz3mr::decompress_multires(
      sz3mr::compress_multires(adaptive, f.value_range() * 1e-5, sz3mr::ours_pad_eb()));
  dec.fine_dims = f.dims();
  // 0.8 floor: at these small test grids half the domain is stored 2x
  // coarser, so reconstruction SSIM is dominated by the downsampling, not
  // the compression (benches at full scale sit far above this).
  EXPECT_GT(metrics::ssim(f, dec.reconstruct_uniform(), {7, 4, 0.01, 0.03}), 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, WorkflowSweep, ::testing::Values(0, 1, 2, 3, 4),
                         [](const auto& info) {
                           return std::string(dataset_name(info.param));
                         });

}  // namespace
}  // namespace mrc
