#include "uncertainty/error_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/thread_pool.h"

namespace mrc::uq {

namespace {

ErrorModel fit_filtered(std::span<const float> orig, std::span<const float> dec,
                        bool filtered, double isovalue, double window, int threads) {
  MRC_REQUIRE(orig.size() == dec.size() && !orig.empty(), "mismatched or empty samples");
  // Fixed 64 Ki-sample chunks, each summed into four interleaved accumulators
  // that are added in chunk order in long double: no bit depends on the width,
  // and the sums land closer to the exact ones than one running double sum.
  constexpr std::size_t kChunk = std::size_t{1} << 16, kAcc = 4;
  struct Part { long double sum = 0, sum2 = 0; index_t n = 0; };
  std::vector<Part> parts((orig.size() + kChunk - 1) / kChunk);
  exec::parallel_for(static_cast<index_t>(parts.size()), [&](index_t c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
    const std::size_t hi = std::min(lo + kChunk, orig.size());
    double s[kAcc] = {}, s2[kAcc] = {};
    index_t n = 0;
    for (std::size_t i = lo; i < hi; i += kAcc)
      for (std::size_t a = 0; a < kAcc && i + a < hi; ++a) {  // a skipped sample adds 0
        const double o = orig[i + a];
        const bool keep = !filtered || !(std::abs(o - isovalue) > window);
        const double e = keep ? o - static_cast<double>(dec[i + a]) : 0.0;
        s[a] += e;
        s2[a] += e * e;
        n += keep ? 1 : 0;
      }
    Part& p = parts[static_cast<std::size_t>(c)];
    for (std::size_t a = 0; a < kAcc; ++a) p = {p.sum + s[a], p.sum2 + s2[a], n};
  }, threads);
  Part all;
  for (const Part& p : parts) all = {all.sum + p.sum, all.sum2 + p.sum2, all.n + p.n};
  ErrorModel m;
  m.n_samples = all.n;
  if (all.n > 0) {
    const long double n = static_cast<long double>(all.n), mean = all.sum / n;
    m.mean = static_cast<double>(mean);
    m.sigma = std::sqrt(static_cast<double>(std::max(0.0L, all.sum2 / n - mean * mean)));
  }
  return m;
}

}  // namespace

ErrorModel ErrorModel::fit(std::span<const float> orig, std::span<const float> dec,
                           int threads) {
  return fit_filtered(orig, dec, false, 0.0, 0.0, threads);
}

ErrorModel ErrorModel::fit_near_isovalue(std::span<const float> orig,
                                         std::span<const float> dec, double isovalue,
                                         double window, index_t min_samples, int threads) {
  ErrorModel m = fit_filtered(orig, dec, true, isovalue, window, threads);
  if (m.n_samples < min_samples) return fit(orig, dec, threads);
  return m;
}

}  // namespace mrc::uq
