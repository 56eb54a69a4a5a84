#pragma once

// Test-side reference for the multi-resolution grid passes: the serial
// amr::build_hierarchy and MultiResField::reconstruct_uniform the library ran
// before they moved onto exec-pool slabs, with the serial block ranking and
// box restrictions (restrict_average, restrict_half) they and the pyramid
// builders called. Every sample goes through at() one cell at a time. The
// pooled functions are checked against these with memcmp.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "grid/field_ops.h"
#include "grid/multires.h"

namespace mrc::test {

/// Per-block value range (max - min), one block at a time.
inline std::vector<double> reference_block_value_ranges(const FieldF& f, index_t block) {
  const Dim3 d = f.dims();
  const Dim3 nb = blocks_for(d, block);
  std::vector<double> ranges(static_cast<std::size_t>(nb.size()));
  for (index_t bz = 0; bz < nb.nz; ++bz)
    for (index_t by = 0; by < nb.ny; ++by)
      for (index_t bx = 0; bx < nb.nx; ++bx) {
        float lo = f.at(bx * block, by * block, bz * block);
        float hi = lo;
        const index_t ex = std::min(block, d.nx - bx * block);
        const index_t ey = std::min(block, d.ny - by * block);
        const index_t ez = std::min(block, d.nz - bz * block);
        for (index_t k = 0; k < ez; ++k)
          for (index_t j = 0; j < ey; ++j)
            for (index_t i = 0; i < ex; ++i) {
              const float v = f.at(bx * block + i, by * block + j, bz * block + k);
              lo = std::min(lo, v);
              hi = std::max(hi, v);
            }
        ranges[static_cast<std::size_t>(nb.index(bx, by, bz))] =
            static_cast<double>(hi) - static_cast<double>(lo);
      }
  return ranges;
}

/// Box-average restriction by `factor`: factor^3 samples summed in double,
/// z, then y, then x, times 1/factor^3.
inline FieldF reference_restrict_average(const FieldF& fine, index_t factor) {
  const Dim3 fd = fine.dims();
  const Dim3 cd{fd.nx / factor, fd.ny / factor, fd.nz / factor};
  FieldF coarse(cd);
  const double inv = 1.0 / static_cast<double>(factor * factor * factor);
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        double sum = 0.0;
        for (index_t k = 0; k < factor; ++k)
          for (index_t j = 0; j < factor; ++j)
            for (index_t i = 0; i < factor; ++i)
              sum += fine.at(x * factor + i, y * factor + j, z * factor + k);
        coarse.at(x, y, z) = static_cast<float>(sum * inv);
      }
  return coarse;
}

/// restrict_half: each coarse cell the mean of its (possibly clipped) 2x2x2
/// fine box, summed in double, z, then y, then x, divided by its count.
inline FieldF reference_restrict_half(const FieldF& fine) {
  const Dim3 fd = fine.dims();
  FieldF coarse(blocks_for(fd, 2));
  const Dim3 cd = coarse.dims();
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        const index_t x1 = std::min(2 * x + 2, fd.nx), y1 = std::min(2 * y + 2, fd.ny),
                      z1 = std::min(2 * z + 2, fd.nz);
        double sum = 0.0;
        for (index_t k = 2 * z; k < z1; ++k)
          for (index_t j = 2 * y; j < y1; ++j)
            for (index_t i = 2 * x; i < x1; ++i) sum += fine.at(i, j, k);
        coarse.at(x, y, z) = static_cast<float>(
            sum / static_cast<double>((x1 - 2 * x) * (y1 - 2 * y) * (z1 - 2 * z)));
      }
  return coarse;
}

/// amr::build_hierarchy, serially: blocks ranked by value range, levels
/// assigned by rank quantile, each level's data a copy or a restriction of
/// the input, each mask set one cell at a time.
inline MultiResField reference_build_hierarchy(const FieldF& fine, index_t block_size,
                                               std::span<const double> fractions) {
  const auto n_levels = static_cast<int>(fractions.size());
  const Dim3 fd = fine.dims();
  const auto ranges = reference_block_value_ranges(fine, block_size);
  const Dim3 nb = blocks_for(fd, block_size);
  std::vector<index_t> order(ranges.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return ranges[static_cast<std::size_t>(a)] > ranges[static_cast<std::size_t>(b)];
  });
  std::vector<int> level_of(ranges.size(), n_levels - 1);
  std::size_t cursor = 0;
  for (int l = 0; l < n_levels - 1; ++l) {
    const auto take = static_cast<std::size_t>(std::llround(
        fractions[static_cast<std::size_t>(l)] * static_cast<double>(ranges.size())));
    for (std::size_t i = 0; i < take && cursor < order.size(); ++i, ++cursor)
      level_of[static_cast<std::size_t>(order[cursor])] = l;
  }

  MultiResField mr;
  mr.fine_dims = fd;
  mr.block_size = block_size;
  mr.levels.resize(static_cast<std::size_t>(n_levels));
  for (int l = 0; l < n_levels; ++l) {
    auto& lev = mr.levels[static_cast<std::size_t>(l)];
    lev.ratio = index_t{1} << l;
    const Dim3 ld{fd.nx / lev.ratio, fd.ny / lev.ratio, fd.nz / lev.ratio};
    lev.data = (l == 0) ? fine : reference_restrict_average(fine, lev.ratio);
    lev.mask = MaskField(ld, 0);
    const index_t lb = block_size / lev.ratio;
    for (index_t bz = 0; bz < nb.nz; ++bz)
      for (index_t by = 0; by < nb.ny; ++by)
        for (index_t bx = 0; bx < nb.nx; ++bx) {
          if (level_of[static_cast<std::size_t>(nb.index(bx, by, bz))] != l) continue;
          for (index_t k = 0; k < lb; ++k)
            for (index_t j = 0; j < lb; ++j)
              for (index_t i = 0; i < lb; ++i)
                lev.mask.at(bx * lb + i, by * lb + j, bz * lb + k) = 1;
        }
  }
  return mr;
}

/// MultiResField::reconstruct_uniform, serially: the coarsest level
/// prolonged into a whole fine field, then each finer level overlaid where
/// its mask is set, coarse to fine — level 0 sample by sample, a coarser one
/// from a whole prolonged field of its own.
inline FieldF reference_reconstruct_uniform(const MultiResField& mr) {
  const Dim3 fd = mr.fine_dims;
  FieldF out = prolong_trilinear(mr.levels.back().data, fd);
  for (int l = static_cast<int>(mr.levels.size()) - 2; l >= 0; --l) {
    const LevelData& lev = mr.levels[static_cast<std::size_t>(l)];
    const index_t r = lev.ratio;
    if (r == 1) {
      for (index_t i = 0; i < lev.data.size(); ++i)
        if (lev.mask[i]) out[i] = lev.data[i];
    } else {
      const FieldF up = prolong_trilinear(lev.data, fd);
      for (index_t z = 0; z < fd.nz; ++z)
        for (index_t y = 0; y < fd.ny; ++y)
          for (index_t x = 0; x < fd.nx; ++x)
            if (lev.mask.at(x / r, y / r, z / r)) out.at(x, y, z) = up.at(x, y, z);
    }
  }
  return out;
}

}  // namespace mrc::test
