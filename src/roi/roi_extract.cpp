#include "roi/roi_extract.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

namespace mrc::roi {

float top_value_quantile(std::span<const float> values, double fraction) {
  MRC_REQUIRE(!values.empty(), "roi: quantile of no values");
  MRC_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "roi: quantile fraction must be in [0, 1]");
  std::vector<float> sorted(values.begin(), values.end());
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(fraction * static_cast<double>(sorted.size())), 1,
      sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (sorted.size() - keep),
                   sorted.end());
  return sorted[sorted.size() - keep];
}

double keep_fraction_threshold(std::span<const double> scores, double fraction) {
  MRC_REQUIRE(fraction == fraction, "roi: keep fraction must not be NaN");
  if (fraction <= 0.0 || scores.empty()) return std::numeric_limits<double>::infinity();
  if (fraction >= 1.0) return -std::numeric_limits<double>::infinity();
  const auto keep = std::min(
      scores.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   fraction * static_cast<double>(scores.size()) + 0.5)));
  std::vector<double> sorted(scores.begin(), scores.end());
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   sorted.end(), std::greater<>());
  return sorted[keep - 1];
}

MultiResField extract_adaptive(const FieldF& uniform, index_t block_size,
                               double roi_fraction, int threads) {
  MRC_REQUIRE(roi_fraction > 0.0 && roi_fraction <= 1.0, "roi fraction in (0, 1]");
  MRC_REQUIRE(block_size >= 8, "paper requires b = 2^n with n > 2");
  const std::array<double, 2> fractions{roi_fraction, 1.0 - roi_fraction};
  return amr::build_hierarchy(uniform, block_size, fractions, threads);
}

double captured_fraction(const MultiResField& adaptive, const FieldF& original,
                         float threshold) {
  MRC_REQUIRE(!adaptive.levels.empty(), "empty hierarchy");
  const LevelData& fine = adaptive.levels.front();
  MRC_REQUIRE(fine.data.dims() == original.dims(), "dimension mismatch");
  index_t interesting = 0;
  index_t captured = 0;
  for (index_t i = 0; i < original.size(); ++i) {
    if (original[i] >= threshold) {
      ++interesting;
      captured += fine.mask[i] ? 1 : 0;
    }
  }
  return interesting == 0 ? 1.0
                          : static_cast<double>(captured) / static_cast<double>(interesting);
}

}  // namespace mrc::roi
