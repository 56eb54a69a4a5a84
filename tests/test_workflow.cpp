#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/workflow.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "roi/roi_extract.h"
#include "simdata/generators.h"
#include "simdata/mini_nyx.h"
#include "test_util.h"

namespace mrc::workflow {
namespace {

TEST(Workflow, UniformToAdaptiveEndToEnd) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 17);
  const double eb = f.value_range() * 1e-3;
  const auto adaptive = roi::extract_adaptive(f, /*block_size=*/16, /*roi_fraction=*/0.3);
  const auto streams = sz3mr::compress_multires(adaptive, eb, sz3mr::ours_pad_eb());
  EXPECT_GT(sz3mr::multires_ratio(adaptive, streams), 1.0);
  ASSERT_EQ(adaptive.levels.size(), 2u);

  const auto mr = sz3mr::decompress_multires(streams);
  // Compose and compare against the adaptive representation (the storage
  // target): valid fine cells must obey the bound.
  const auto& fine_in = adaptive.levels[0];
  const auto& fine_out = mr.levels[0];
  for (index_t i = 0; i < fine_in.data.size(); ++i)
    if (fine_in.mask[i]) {
      EXPECT_LE(std::abs(static_cast<double>(fine_in.data[i]) - fine_out.data[i]),
                eb * (1 + 1e-12));
    }
}

TEST(Workflow, ReconstructionQualityReasonable) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 23);
  const double eb = f.value_range() * 1e-4;
  const auto adaptive = roi::extract_adaptive(f, /*block_size=*/16, /*roi_fraction=*/0.5);
  const auto mr = sz3mr::decompress_multires(
      sz3mr::compress_multires(adaptive, eb, sz3mr::ours_pad_eb()));
  MultiResField full = mr;
  full.fine_dims = f.dims();
  const FieldF recon = full.reconstruct_uniform();
  // Multi-resolution + compression: SSIM should stay high (cf. Fig. 4's
  // 0.99995 for ROI-only at 15%).
  EXPECT_GT(metrics::ssim(f, recon), 0.9);
}

TEST(Workflow, SnapshotWriteReadRoundTrip) {
  sim::MiniNyx::Params p;
  p.dims = {32, 32, 32};
  p.block_size = 8;
  sim::MiniNyx nyx(p);
  const auto mr = nyx.hierarchy();
  const auto path =
      (std::filesystem::temp_directory_path() / "mrc_test_snapshot.mrc").string();

  const double eb = nyx.density().value_range() * 1e-3;
  const auto timing = write_snapshot(mr, eb, sz3mr::ours_pad_eb(), path);
  EXPECT_GT(timing.bytes_written, 0u);
  EXPECT_GE(timing.preprocess_s, 0.0);
  EXPECT_GE(timing.compress_write_s, 0.0);

  const auto back = read_snapshot(path);
  ASSERT_EQ(back.levels.size(), mr.levels.size());
  for (std::size_t l = 0; l < mr.levels.size(); ++l) {
    const auto& a = mr.levels[l];
    const auto& b = back.levels[l];
    ASSERT_EQ(a.data.dims(), b.data.dims());
    for (index_t i = 0; i < a.data.size(); ++i)
      if (a.mask[i]) {
        EXPECT_LE(std::abs(static_cast<double>(a.data[i]) - b.data[i]), eb * (1 + 1e-12));
      }
  }
  std::remove(path.c_str());
}

TEST(Workflow, InSituLoopMultipleSteps) {
  sim::MiniNyx::Params p;
  p.dims = {32, 32, 32};
  p.block_size = 8;
  sim::MiniNyx nyx(p);
  const auto dir = std::filesystem::temp_directory_path();
  for (int s = 0; s < 3; ++s) {
    const auto mr = nyx.hierarchy();
    const auto path = (dir / ("mrc_step_" + std::to_string(s) + ".mrc")).string();
    const double eb = nyx.density().value_range() * 1e-3;
    const auto t = write_snapshot(mr, eb, sz3mr::ours_pad_eb(), path);
    EXPECT_GT(t.bytes_written, 0u);
    std::remove(path.c_str());
    nyx.step();
  }
}

TEST(Workflow, HigherRoiFractionStoresMoreSamples) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 29);
  const auto a = roi::extract_adaptive(f, 16, /*roi_fraction=*/0.15);
  const auto b = roi::extract_adaptive(f, 16, /*roi_fraction=*/0.6);
  EXPECT_LT(a.stored_samples(), b.stored_samples());
}

}  // namespace
}  // namespace mrc::workflow
