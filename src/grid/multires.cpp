#include "grid/multires.h"

#include <algorithm>
#include <numeric>

#include "exec/thread_pool.h"

namespace mrc {

double LevelData::density() const {
  if (mask.empty()) return 0.0;
  return static_cast<double>(valid_count()) / static_cast<double>(mask.size());
}

index_t LevelData::valid_count() const {
  index_t n = 0;
  for (index_t i = 0; i < mask.size(); ++i) n += mask[i] ? 1 : 0;
  return n;
}

FieldF MultiResField::reconstruct_uniform(int threads) const {
  MRC_REQUIRE(!levels.empty(), "empty hierarchy");
  for (std::size_t l = 0; l < levels.size(); ++l)
    MRC_REQUIRE(levels[l].ratio == index_t{1} << l &&
                    levels[l].mask.dims() == levels[l].data.dims() &&
                    levels[l].data.dims() == blocks_for(fine_dims, levels[l].ratio),
                "reconstruct_uniform: level l must be fine_dims coarsened 2^l-fold");
  // Per fine z-slab: the coarsest level prolonged, then finer levels overlaid
  // where valid, coarse to fine — a level of ratio r > 1 from its prolonged
  // rows, level 0 from its samples inside level 1's row sink.
  FieldF out(fine_dims);
  const int top = static_cast<int>(levels.size()) - 1;
  const index_t nx = fine_dims.nx;
  const index_t nz = fine_dims.nz;
  exec::for_slabs(nz, exec::slab_count(nz, threads), [&](index_t, index_t z0, index_t z1) {
    for (int l = top; l >= std::min(top, 1); --l) {
      const LevelData& lev = levels[static_cast<std::size_t>(l)];
      const index_t r = lev.ratio;
      prolong_trilinear_rows(lev.data, fine_dims, z0, z1,
                             [&](index_t y, index_t z, const float* v) {
        float* o = &out.at(0, y, z);
        if (l < top) {  // overlay this level's valid cells
          const std::uint8_t* m = &lev.mask.at(0, y / r, z / r);
          for (index_t x = 0; x < nx; ++x) o[x] = m[x / r] ? v[x] : o[x];
          v = o;
        }
        if (l == 1) {  // then level 0's
          const float* d = &levels[0].data.at(0, y, z);
          const std::uint8_t* m = &levels[0].mask.at(0, y, z);
          for (index_t x = 0; x < nx; ++x) o[x] = m[x] ? d[x] : v[x];
        } else if (v != o) {
          std::copy_n(v, nx, o);
        }
      });
    }
  }, threads);
  return out;
}

index_t MultiResField::stored_samples() const {
  index_t n = 0;
  for (const auto& l : levels) n += l.valid_count();
  return n;
}

namespace amr {

MultiResField build_hierarchy(const FieldF& fine, index_t block_size,
                              std::span<const double> fractions, int threads) {
  MRC_REQUIRE(!fractions.empty(), "need at least one level");
  const auto n_levels = static_cast<int>(fractions.size());
  const Dim3 fd = fine.dims();
  MRC_REQUIRE(block_size >= 2 && (block_size & (block_size - 1)) == 0,
              "block size must be a power of two");
  const index_t coarsest_ratio = index_t{1} << (n_levels - 1);
  MRC_REQUIRE(block_size % coarsest_ratio == 0,
              "block size must be divisible by the coarsest refinement ratio");
  MRC_REQUIRE(fd.nx % block_size == 0 && fd.ny % block_size == 0 && fd.nz % block_size == 0,
              "extents must be divisible by the block size");

  // Rank blocks by value range and assign to levels by rank quantile.
  const auto ranges = block_value_ranges(fine, block_size, threads);
  const Dim3 nb = blocks_for(fd, block_size);
  std::vector<index_t> order(ranges.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](index_t a, index_t b) { return ranges[static_cast<std::size_t>(a)] > ranges[static_cast<std::size_t>(b)]; });

  std::vector<int> level_of(ranges.size(), n_levels - 1);
  std::size_t cursor = 0;
  for (int l = 0; l < n_levels - 1; ++l) {
    const auto take = static_cast<std::size_t>(
        std::llround(fractions[static_cast<std::size_t>(l)] * static_cast<double>(ranges.size())));
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
    lev.data = l == 0 ? FieldF(fd) : restrict_average(fine, lev.ratio, threads);
    lev.mask = MaskField(lev.data.dims(), 0);
  }
  // Level 0's copy of the input and every mask, a block row at a time.
  exec::for_slabs(nb.nz, exec::slab_count(nb.nz, threads), [&](index_t, index_t bz0, index_t bz1) {
    std::copy(fine.data() + fd.index(0, 0, bz0 * block_size),
              fine.data() + fd.index(0, 0, bz1 * block_size),
              mr.levels[0].data.data() + fd.index(0, 0, bz0 * block_size));
    for (int l = 0; l < n_levels; ++l) {
      MaskField& mask = mr.levels[static_cast<std::size_t>(l)].mask;
      const index_t lb = block_size >> l;  // block extent at this level
      for (index_t z = bz0 * lb; z < bz1 * lb; ++z)
        for (index_t y = 0; y < mask.dims().ny; ++y)
          for (index_t bx = 0; bx < nb.nx; ++bx)
            if (level_of[static_cast<std::size_t>(nb.index(bx, y / lb, z / lb))] == l)
              std::fill_n(&mask.at(bx * lb, y, z), lb, std::uint8_t{1});
    }
  }, threads);
  return mr;
}

}  // namespace amr

}  // namespace mrc
