// Reproduces Figs. 7-8 and the padding discussion of §III-A:
//  (1) counts of inner points forced into constant extrapolation for
//      2^k-sized unit blocks vs padded 2^k+1 shapes,
//  (2) the padding size overhead (u+1)^2/u^2 (56% at u=4 -> why the paper
//      pads only when u > 4),
//  (3) the pad-value ablation the paper mentions (constant / linear /
//      quadratic extrapolation) as compressed size at a fixed bound.

#include <array>

#include "bench_util.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/registry.h"
#include "merge/merge_strategies.h"
#include "merge/padding.h"

using namespace mrc;

int main() {
  bench::print_title("Figs. 7-8 — padding vs extrapolation", "Figs. 7-8, §III-A",
                     "interpolation audit + Nyx fine level");

  std::printf("%-24s %-16s %-16s\n", "line length", "extrapolated", "of inner points");
  for (const index_t n : {8, 9, 16, 17, 32, 33}) {
    const index_t e = InterpCompressor::count_extrapolated_points({n, 1, 1});
    std::printf("%-24lld %-16lld %lld\n", static_cast<long long>(n),
                static_cast<long long>(e), static_cast<long long>(n - 2));
  }
  std::printf("paper: 8 points -> 2/6 inner extrapolated; 16 -> 3/14; 2^k+1 -> 0.\n\n");

  std::printf("%-8s %-20s\n", "u", "padding overhead");
  for (const index_t u : {4, 8, 16, 32}) {
    std::printf("%-8lld %5.1f%%  %s\n", static_cast<long long>(u),
                100.0 * (padding_overhead(u) - 1.0),
                u > 4 ? "(padded)" : "(skipped: overhead too high, paper §III-A)");
  }

  // Pad-value ablation on a real multi-resolution level.
  const FieldF f = sim::nyx_density(scaled({256, 256, 256}), 7);
  const std::array<double, 2> fr{0.4, 0.6};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  const auto set = scan_unit_blocks(mr.levels[0], 16);
  const FieldF merged = gather_linear(mr.levels[0], set, /*pad=*/false, PadKind::linear);
  const double eb = f.value_range() * 1e-4;

  const auto comp_ptr = registry().make("interp");
  const Compressor& comp = *comp_ptr;
  std::printf("\n%-12s %-14s %-10s\n", "pad kind", "bytes", "CR");
  const auto base = comp.compress(merged, eb);
  std::printf("%-12s %-14zu %-10.1f\n", "none", base.size(),
              compression_ratio(merged.size(), base.size()));
  for (const auto& [kind, name] :
       std::initializer_list<std::pair<PadKind, const char*>>{
           {PadKind::constant, "constant"},
           {PadKind::linear, "linear"},
           {PadKind::quadratic, "quadratic"}}) {
    const FieldF padded = pad_xy(merged, kind);
    const auto s = comp.compress(padded, eb);
    // CR accounted against the *original* sample count (pad is overhead).
    std::printf("%-12s %-14zu %-10.1f\n", name, s.size(),
                compression_ratio(merged.size(), s.size()));
  }
  std::printf("paper: linear extrapolation gives the best overall prediction.\n");
  return 0;
}
