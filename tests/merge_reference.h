#pragma once

// Test-side reference for the merge layouts: the block-payload path the
// library retired. It copies every occupied unit block out of the level
// (extract_unit_blocks), arranges the copies (merge_*), splits a layout back
// into copies (unmerge_*) and writes them into the level
// (scatter_unit_blocks). The library's one gather and one scatter per layout
// (merge/merge_strategies.h) are checked against it, so it keeps its own
// scan, Morton order, stack arrangement and TAC bisection.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/require.h"
#include "merge/merge_strategies.h"

namespace mrc::test {

/// Occupied unit blocks and a copy of their samples: block-major, u^3 per
/// block in block_ids order, x fastest within a block.
struct BlockPayload {
  UnitBlockSet set;
  std::vector<float> data;

  [[nodiscard]] index_t values_per_block() const { return set.unit * set.unit * set.unit; }
};

/// Copies every block holding a valid cell out of `level`, testing the mask
/// one cell at a time.
inline BlockPayload extract_unit_blocks(const LevelData& level, index_t unit) {
  MRC_REQUIRE(unit >= 1, "bad unit size");
  const Dim3 d = level.data.dims();
  MRC_REQUIRE(d.nx % unit == 0 && d.ny % unit == 0 && d.nz % unit == 0,
              "level extents not divisible by unit block size");
  BlockPayload p;
  p.set.unit = unit;
  p.set.level_dims = d;
  p.set.block_grid = blocks_for(d, unit);
  for (index_t bz = 0; bz < p.set.block_grid.nz; ++bz)
    for (index_t by = 0; by < p.set.block_grid.ny; ++by)
      for (index_t bx = 0; bx < p.set.block_grid.nx; ++bx) {
        bool occupied = false;
        for (index_t k = 0; k < unit && !occupied; ++k)
          for (index_t j = 0; j < unit && !occupied; ++j)
            for (index_t i = 0; i < unit && !occupied; ++i)
              occupied = level.mask.at(bx * unit + i, by * unit + j, bz * unit + k) != 0;
        if (!occupied) continue;
        p.set.block_ids.push_back(p.set.block_grid.index(bx, by, bz));
        for (index_t k = 0; k < unit; ++k)
          for (index_t j = 0; j < unit; ++j)
            for (index_t i = 0; i < unit; ++i)
              p.data.push_back(level.data.at(bx * unit + i, by * unit + j, bz * unit + k));
      }
  return p;
}

/// Writes the copies back into `level.data` and sets `level.mask` over them.
inline void scatter_unit_blocks(const BlockPayload& p, LevelData& level) {
  MRC_REQUIRE(level.data.dims() == p.set.level_dims, "level dims mismatch");
  const index_t u = p.set.unit;
  for (index_t b = 0; b < p.set.block_count(); ++b) {
    const Coord3 c = p.set.block_coord(p.set.block_ids[static_cast<std::size_t>(b)]);
    const float* src = p.data.data() + b * p.values_per_block();
    for (index_t k = 0; k < u; ++k)
      for (index_t j = 0; j < u; ++j)
        for (index_t i = 0; i < u; ++i) {
          level.data.at(c.x * u + i, c.y * u + j, c.z * u + k) = src[i + u * (j + u * k)];
          level.mask.at(c.x * u + i, c.y * u + j, c.z * u + k) = 1;
        }
  }
}

namespace merge_ref_detail {

inline void copy_block_to(const BlockPayload& p, index_t slot, FieldF& dst, Coord3 at) {
  const index_t u = p.set.unit;
  const float* src = p.data.data() + slot * p.values_per_block();
  for (index_t k = 0; k < u; ++k)
    for (index_t j = 0; j < u; ++j)
      for (index_t i = 0; i < u; ++i)
        dst.at(at.x + i, at.y + j, at.z + k) = src[i + u * (j + u * k)];
}

inline void copy_block_from(BlockPayload& p, index_t slot, const FieldF& src, Coord3 at) {
  const index_t u = p.set.unit;
  float* dst = p.data.data() + slot * p.values_per_block();
  for (index_t k = 0; k < u; ++k)
    for (index_t j = 0; j < u; ++j)
      for (index_t i = 0; i < u; ++i)
        dst[i + u * (j + u * k)] = src.at(at.x + i, at.y + j, at.z + k);
}

inline std::uint64_t morton3(Coord3 c) {
  auto spread = [](std::uint64_t v) {
    v &= 0xffff;
    v = (v | (v << 32)) & 0x0000ffff0000ffffull;
    v = (v | (v << 16)) & 0x00ff00ff00ff00ffull;
    v = (v | (v << 8)) & 0x0f0f0f0f0f0f0f0full;
    v = (v | (v << 4)) & 0x3333333333333333ull;
    v = (v | (v << 2)) & 0x5555555555555555ull;
    return v;
  };
  return spread(static_cast<std::uint64_t>(c.x)) |
         (spread(static_cast<std::uint64_t>(c.y)) << 1) |
         (spread(static_cast<std::uint64_t>(c.z)) << 2);
}

/// Payload slots in Morton order of their block coordinates.
inline std::vector<index_t> morton_order(const UnitBlockSet& set) {
  std::vector<index_t> order(static_cast<std::size_t>(set.block_count()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return morton3(set.block_coord(set.block_ids[static_cast<std::size_t>(a)])) <
           morton3(set.block_coord(set.block_ids[static_cast<std::size_t>(b)]));
  });
  return order;
}

inline Dim3 stack_arrangement(index_t n) {
  const auto a = static_cast<index_t>(std::ceil(std::cbrt(static_cast<double>(n))));
  const auto b = static_cast<index_t>(
      std::ceil(std::sqrt(static_cast<double>(n) / static_cast<double>(a))));
  const index_t c = ceil_div(n, a * b);
  return {a, b, c};
}

inline Coord3 slot_at(Dim3 arr, index_t s, index_t u) {
  return {(s % arr.nx) * u, ((s / arr.nx) % arr.ny) * u, (s / (arr.nx * arr.ny)) * u};
}

struct TacContext {
  const BlockPayload& p;
  const std::vector<index_t>& slot_of;  ///< block id -> payload slot, or -1
  std::vector<TacBox>& out;
};

inline void tac_recurse(TacContext& ctx, Coord3 lo, Dim3 ext) {
  const Dim3& grid = ctx.p.set.block_grid;
  index_t count = 0;
  for (index_t z = lo.z; z < lo.z + ext.nz; ++z)
    for (index_t y = lo.y; y < lo.y + ext.ny; ++y)
      for (index_t x = lo.x; x < lo.x + ext.nx; ++x)
        count += ctx.slot_of[static_cast<std::size_t>(grid.index(x, y, z))] >= 0 ? 1 : 0;
  if (count == 0) return;
  if (count == ext.size()) {
    const index_t u = ctx.p.set.unit;
    TacBox box{lo, ext, FieldF({ext.nx * u, ext.ny * u, ext.nz * u})};
    for (index_t z = 0; z < ext.nz; ++z)
      for (index_t y = 0; y < ext.ny; ++y)
        for (index_t x = 0; x < ext.nx; ++x)
          copy_block_to(ctx.p,
                        ctx.slot_of[static_cast<std::size_t>(
                            grid.index(lo.x + x, lo.y + y, lo.z + z))],
                        box.data, {x * u, y * u, z * u});
    ctx.out.push_back(std::move(box));
    return;
  }
  int axis = 0;
  if (ext.ny > ext[axis]) axis = 1;
  if (ext.nz > ext[axis]) axis = 2;
  const index_t half = ext[axis] / 2;
  Dim3 e1 = ext, e2 = ext;
  Coord3 lo2 = lo;
  if (axis == 0) {
    e1.nx = half;
    e2.nx = ext.nx - half;
    lo2.x += half;
  } else if (axis == 1) {
    e1.ny = half;
    e2.ny = ext.ny - half;
    lo2.y += half;
  } else {
    e1.nz = half;
    e2.nz = ext.nz - half;
    lo2.z += half;
  }
  tac_recurse(ctx, lo, e1);
  tac_recurse(ctx, lo2, e2);
}

inline std::vector<index_t> slots_by_id(const UnitBlockSet& set) {
  std::vector<index_t> slot_of(static_cast<std::size_t>(set.block_grid.size()), -1);
  for (index_t s = 0; s < set.block_count(); ++s)
    slot_of[static_cast<std::size_t>(set.block_ids[static_cast<std::size_t>(s)])] = s;
  return slot_of;
}

}  // namespace merge_ref_detail

/// u × u × (u·n) concatenation of the copies along z.
inline FieldF merge_linear(const BlockPayload& p) {
  const index_t u = p.set.unit;
  FieldF merged({u, u, u * p.set.block_count()});
  for (index_t b = 0; b < p.set.block_count(); ++b)
    merge_ref_detail::copy_block_to(p, b, merged, {0, 0, b * u});
  return merged;
}

/// Splits a u × u × (u·n) linear merge back into the copies.
inline void unmerge_linear(const FieldF& merged, BlockPayload& p) {
  const index_t u = p.set.unit;
  MRC_REQUIRE(merged.dims() == Dim3(u, u, u * p.set.block_count()), "merged shape mismatch");
  p.data.assign(static_cast<std::size_t>(p.set.block_count() * p.values_per_block()), 0.0f);
  for (index_t b = 0; b < p.set.block_count(); ++b)
    merge_ref_detail::copy_block_from(p, b, merged, {0, 0, b * u});
}

/// Near-cubic stacking in Morton order; tail slots repeat the last block.
inline FieldF merge_stack(const BlockPayload& p) {
  using namespace merge_ref_detail;
  const index_t u = p.set.unit;
  const index_t n = p.set.block_count();
  const Dim3 arr = stack_arrangement(n);
  FieldF merged({arr.nx * u, arr.ny * u, arr.nz * u});
  const auto order = morton_order(p.set);
  for (index_t s = 0; s < arr.size(); ++s)
    copy_block_to(p, order[static_cast<std::size_t>(std::min(s, n - 1))], merged,
                  slot_at(arr, s, u));
  return merged;
}

inline void unmerge_stack(const FieldF& merged, BlockPayload& p) {
  using namespace merge_ref_detail;
  const index_t u = p.set.unit;
  const index_t n = p.set.block_count();
  const Dim3 arr = stack_arrangement(n);
  MRC_REQUIRE(merged.dims() == Dim3(arr.nx * u, arr.ny * u, arr.nz * u),
              "merged shape mismatch");
  p.data.assign(static_cast<std::size_t>(n * p.values_per_block()), 0.0f);
  const auto order = morton_order(p.set);
  for (index_t s = 0; s < n; ++s)
    copy_block_from(p, order[static_cast<std::size_t>(s)], merged, slot_at(arr, s, u));
}

/// Recursive bisection of the block grid into fully occupied boxes, each
/// assembled from the block copies.
inline std::vector<TacBox> merge_tac(const BlockPayload& p) {
  const auto slot_of = merge_ref_detail::slots_by_id(p.set);
  std::vector<TacBox> out;
  merge_ref_detail::TacContext ctx{p, slot_of, out};
  merge_ref_detail::tac_recurse(ctx, {0, 0, 0}, p.set.block_grid);
  return out;
}

inline void unmerge_tac(std::span<const TacBox> boxes, BlockPayload& p) {
  const auto slot_of = merge_ref_detail::slots_by_id(p.set);
  p.data.assign(static_cast<std::size_t>(p.set.block_count() * p.values_per_block()), 0.0f);
  const index_t u = p.set.unit;
  for (const TacBox& box : boxes)
    for (index_t z = 0; z < box.extent_blocks.nz; ++z)
      for (index_t y = 0; y < box.extent_blocks.ny; ++y)
        for (index_t x = 0; x < box.extent_blocks.nx; ++x) {
          const index_t id = p.set.block_grid.index(box.origin_blocks.x + x,
                                                    box.origin_blocks.y + y,
                                                    box.origin_blocks.z + z);
          const index_t slot = slot_of[static_cast<std::size_t>(id)];
          MRC_REQUIRE(slot >= 0, "tac box covers an unoccupied block");
          merge_ref_detail::copy_block_from(p, slot, box.data, {x * u, y * u, z * u});
        }
}

}  // namespace mrc::test
