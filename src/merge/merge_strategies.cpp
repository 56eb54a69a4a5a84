#include "merge/merge_strategies.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/thread_pool.h"

namespace mrc {

namespace {

void copy_block_to(const UnitBlockSet& set, index_t slot, FieldF& dst, Coord3 at) {
  const index_t u = set.unit;
  const float* src = set.data.data() + slot * set.values_per_block();
  for (index_t k = 0; k < u; ++k)
    for (index_t j = 0; j < u; ++j)
      for (index_t i = 0; i < u; ++i)
        dst.at(at.x + i, at.y + j, at.z + k) = src[i + u * (j + u * k)];
}

void copy_block_from(UnitBlockSet& set, index_t slot, const FieldF& src, Coord3 at) {
  const index_t u = set.unit;
  float* dst = set.data.data() + slot * set.values_per_block();
  for (index_t k = 0; k < u; ++k)
    for (index_t j = 0; j < u; ++j)
      for (index_t i = 0; i < u; ++i)
        dst[i + u * (j + u * k)] = src.at(at.x + i, at.y + j, at.z + k);
}

/// Interleaves 16-bit coordinates into a Morton key.
std::uint64_t morton3(Coord3 c) {
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

/// Deterministic Morton placement order used by both merge and unmerge.
std::vector<index_t> morton_order(const UnitBlockSet& set) {
  std::vector<index_t> order(static_cast<std::size_t>(set.block_count()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return morton3(set.block_coord(set.block_ids[static_cast<std::size_t>(a)])) <
           morton3(set.block_coord(set.block_ids[static_cast<std::size_t>(b)]));
  });
  return order;
}

Dim3 stack_arrangement(index_t n) {
  const auto a = static_cast<index_t>(std::ceil(std::cbrt(static_cast<double>(n))));
  const auto b = static_cast<index_t>(
      std::ceil(std::sqrt(static_cast<double>(n) / static_cast<double>(a))));
  const index_t c = ceil_div(n, a * b);
  return {a, b, c};
}

}  // namespace

FieldF merge_linear(const UnitBlockSet& set) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const index_t u = set.unit;
  FieldF merged({u, u, u * set.block_count()});
  for (index_t b = 0; b < set.block_count(); ++b)
    copy_block_to(set, b, merged, {0, 0, b * u});
  return merged;
}

FieldF merge_stack(const UnitBlockSet& set) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const index_t u = set.unit;
  const index_t n = set.block_count();
  const Dim3 arr = stack_arrangement(n);
  FieldF merged({arr.nx * u, arr.ny * u, arr.nz * u});

  const auto order = morton_order(set);
  for (index_t s = 0; s < arr.size(); ++s) {
    // Tail slots replicate the last real block to avoid a hard zero edge.
    const index_t slot = order[static_cast<std::size_t>(std::min(s, n - 1))];
    const Coord3 at{(s % arr.nx) * u, ((s / arr.nx) % arr.ny) * u,
                    (s / (arr.nx * arr.ny)) * u};
    copy_block_to(set, slot, merged, at);
  }
  return merged;
}

void unmerge_stack(const FieldF& merged, UnitBlockSet& set) {
  const index_t u = set.unit;
  const index_t n = set.block_count();
  const Dim3 arr = stack_arrangement(n);
  MRC_REQUIRE(merged.dims() == Dim3(arr.nx * u, arr.ny * u, arr.nz * u),
              "merged shape mismatch");
  set.data.assign(static_cast<std::size_t>(n * set.values_per_block()), 0.0f);
  const auto order = morton_order(set);
  for (index_t s = 0; s < n; ++s) {
    const Coord3 at{(s % arr.nx) * u, ((s / arr.nx) % arr.ny) * u,
                    (s / (arr.nx * arr.ny)) * u};
    copy_block_from(set, order[static_cast<std::size_t>(s)], merged, at);
  }
}

UnitBlockSet scan_unit_blocks(const LevelData& level, index_t unit) {
  MRC_REQUIRE(unit >= 1, "bad unit size");
  const Dim3 d = level.data.dims();
  MRC_REQUIRE(d.nx % unit == 0 && d.ny % unit == 0 && d.nz % unit == 0,
              "level extents not divisible by unit block size");
  UnitBlockSet set;
  set.unit = unit;
  set.level_dims = d;
  set.block_grid = blocks_for(d, unit);
  for (index_t bz = 0; bz < set.block_grid.nz; ++bz)
    for (index_t by = 0; by < set.block_grid.ny; ++by)
      for (index_t bx = 0; bx < set.block_grid.nx; ++bx) {
        // OR each mask row (a vectorizable reduction), stopping at the first
        // row with a valid cell.
        bool occupied = false;
        for (index_t k = 0; k < unit && !occupied; ++k)
          for (index_t j = 0; j < unit && !occupied; ++j) {
            const std::uint8_t* row = &level.mask.at(bx * unit, by * unit + j, bz * unit + k);
            std::uint8_t any = 0;
            for (index_t i = 0; i < unit; ++i) any |= row[i];
            occupied = any != 0;
          }
        if (occupied) set.block_ids.push_back(set.block_grid.index(bx, by, bz));
      }
  return set;
}

FieldF gather_linear(const LevelData& level, const UnitBlockSet& set, bool pad,
                     PadKind kind, int threads) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const index_t u = set.unit;
  const index_t n = set.block_count();
  const index_t mx = pad ? u + 1 : u;
  const index_t my = pad ? u + 1 : u;
  FieldF merged({mx, my, u * n});

  auto extrapolate = [kind](float a, float b, float c) {
    switch (kind) {
      case PadKind::constant: return a;
      case PadKind::linear: return 2.0f * a - b;
      case PadKind::quadratic: return 3.0f * a - 3.0f * b + c;
    }
    return a;
  };

  // Block b owns merged planes [b·u, (b+1)·u), so blocks gather in parallel.
  exec::parallel_for(n, [&](index_t b) {
    const Coord3 c = set.block_coord(set.block_ids[static_cast<std::size_t>(b)]);
    for (index_t k = 0; k < u; ++k) {
      const index_t mz = b * u + k;
      for (index_t j = 0; j < u; ++j) {
        const float* src = &level.data.at(c.x * u, c.y * u + j, c.z * u + k);
        float* dst = &merged.at(0, j, mz);
        std::copy(src, src + u, dst);
        if (pad)
          dst[u] = u >= 3 ? extrapolate(dst[u - 1], dst[u - 2], dst[u - 3])
                          : dst[u - 1];
      }
      if (pad) {
        // +y layer, including the +x column already written above.
        for (index_t i = 0; i < mx; ++i) {
          merged.at(i, u, mz) =
              u >= 3 ? extrapolate(merged.at(i, u - 1, mz), merged.at(i, u - 2, mz),
                                   merged.at(i, u - 3, mz))
                     : merged.at(i, u - 1, mz);
        }
      }
    }
  }, threads);
  return merged;
}

void scatter_linear(const FieldF& merged, bool padded, const UnitBlockSet& set,
                    LevelData& level, int threads) {
  MRC_REQUIRE(level.data.dims() == set.level_dims, "level dims mismatch");
  MRC_REQUIRE(level.mask.dims() == set.level_dims, "mask dims mismatch");
  const index_t u = set.unit;
  const index_t pitch = padded ? u + 1 : u;
  MRC_REQUIRE(merged.dims() == Dim3(pitch, pitch, u * set.block_count()),
              "merged shape mismatch");
  exec::parallel_for(set.block_count(), [&](index_t b) {
    const Coord3 c = set.block_coord(set.block_ids[static_cast<std::size_t>(b)]);
    for (index_t k = 0; k < u; ++k)
      for (index_t j = 0; j < u; ++j) {
        const float* src = &merged.at(0, j, b * u + k);
        const index_t dst = set.level_dims.index(c.x * u, c.y * u + j, c.z * u + k);
        std::copy(src, src + u, level.data.data() + dst);
        std::fill_n(level.mask.data() + dst, u, std::uint8_t{1});
      }
  }, threads);
}

FieldF gather_stack(const LevelData& level, const UnitBlockSet& set) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const index_t u = set.unit;
  const index_t n = set.block_count();
  const Dim3 arr = stack_arrangement(n);
  FieldF merged({arr.nx * u, arr.ny * u, arr.nz * u});

  const auto order = morton_order(set);
  for (index_t s = 0; s < arr.size(); ++s) {
    const index_t slot = order[static_cast<std::size_t>(std::min(s, n - 1))];
    const Coord3 c = set.block_coord(set.block_ids[static_cast<std::size_t>(slot)]);
    const Coord3 at{(s % arr.nx) * u, ((s / arr.nx) % arr.ny) * u,
                    (s / (arr.nx * arr.ny)) * u};
    for (index_t k = 0; k < u; ++k)
      for (index_t j = 0; j < u; ++j) {
        const float* src = &level.data.at(c.x * u, c.y * u + j, c.z * u + k);
        float* dst = &merged.at(at.x, at.y + j, at.z + k);
        std::copy(src, src + u, dst);
      }
  }
  return merged;
}

namespace {

struct TacContext {
  const UnitBlockSet& set;
  const std::vector<std::uint8_t>& occupied;
  std::vector<TacBox>& out;
  // Maps linear block id -> slot in set.data (or -1).
  const std::vector<index_t>& slot_of;
};

void tac_recurse(TacContext& ctx, Coord3 lo, Dim3 ext) {
  const Dim3& grid = ctx.set.block_grid;
  index_t count = 0;
  for (index_t z = lo.z; z < lo.z + ext.nz; ++z)
    for (index_t y = lo.y; y < lo.y + ext.ny; ++y)
      for (index_t x = lo.x; x < lo.x + ext.nx; ++x)
        count += ctx.occupied[static_cast<std::size_t>(grid.index(x, y, z))] ? 1 : 0;
  if (count == 0) return;

  if (count == ext.size()) {
    const index_t u = ctx.set.unit;
    TacBox box;
    box.origin_blocks = lo;
    box.extent_blocks = ext;
    box.data = FieldF({ext.nx * u, ext.ny * u, ext.nz * u});
    for (index_t z = 0; z < ext.nz; ++z)
      for (index_t y = 0; y < ext.ny; ++y)
        for (index_t x = 0; x < ext.nx; ++x) {
          const index_t id = grid.index(lo.x + x, lo.y + y, lo.z + z);
          copy_block_to(ctx.set, ctx.slot_of[static_cast<std::size_t>(id)], box.data,
                        {x * u, y * u, z * u});
        }
    ctx.out.push_back(std::move(box));
    return;
  }

  // Split the longest axis; kD-style bisection over the block grid.
  int axis = 0;
  if (ext.ny > ext[axis]) axis = 1;
  if (ext.nz > ext[axis]) axis = 2;
  MRC_REQUIRE(ext[axis] >= 2, "cannot split a unit box");
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

}  // namespace

std::vector<TacBox> merge_tac(const UnitBlockSet& set) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  std::vector<std::uint8_t> occupied(static_cast<std::size_t>(set.block_grid.size()), 0);
  std::vector<index_t> slot_of(static_cast<std::size_t>(set.block_grid.size()), -1);
  for (index_t s = 0; s < set.block_count(); ++s) {
    occupied[static_cast<std::size_t>(set.block_ids[static_cast<std::size_t>(s)])] = 1;
    slot_of[static_cast<std::size_t>(set.block_ids[static_cast<std::size_t>(s)])] = s;
  }
  std::vector<TacBox> out;
  TacContext ctx{set, occupied, out, slot_of};
  tac_recurse(ctx, {0, 0, 0}, set.block_grid);
  return out;
}

void unmerge_tac(std::span<const TacBox> boxes, UnitBlockSet& set) {
  std::vector<index_t> slot_of(static_cast<std::size_t>(set.block_grid.size()), -1);
  for (index_t s = 0; s < set.block_count(); ++s)
    slot_of[static_cast<std::size_t>(set.block_ids[static_cast<std::size_t>(s)])] = s;
  set.data.assign(static_cast<std::size_t>(set.block_count() * set.values_per_block()), 0.0f);

  const index_t u = set.unit;
  for (const TacBox& box : boxes) {
    for (index_t z = 0; z < box.extent_blocks.nz; ++z)
      for (index_t y = 0; y < box.extent_blocks.ny; ++y)
        for (index_t x = 0; x < box.extent_blocks.nx; ++x) {
          const index_t id = set.block_grid.index(box.origin_blocks.x + x,
                                                  box.origin_blocks.y + y,
                                                  box.origin_blocks.z + z);
          const index_t slot = slot_of[static_cast<std::size_t>(id)];
          MRC_REQUIRE(slot >= 0, "tac box covers an unoccupied block");
          copy_block_from(set, slot, box.data, {x * u, y * u, z * u});
        }
  }
}

}  // namespace mrc
