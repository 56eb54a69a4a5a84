#include "merge/merge_strategies.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"

namespace mrc {

namespace {

Coord3 scaled(Coord3 c, index_t u) { return {c.x * u, c.y * u, c.z * u}; }

/// Copies the `ext` box at `from` in `src` to `to` in `dst`, one x row at a
/// time.
void copy_box(const FieldF& src, Coord3 from, FieldF& dst, Coord3 to, Dim3 ext) {
  for (index_t k = 0; k < ext.nz; ++k)
    for (index_t j = 0; j < ext.ny; ++j) {
      const float* row = &src.at(from.x, from.y + j, from.z + k);
      std::copy(row, row + ext.nx, &dst.at(to.x, to.y + j, to.z + k));
    }
}

/// copy_box into the level grid, marking every cell it writes valid. Each
/// row's copy and mask fill share one loop: a second pass for the mask
/// timed slower on the decode's linear scatter.
void scatter_box(const FieldF& src, Coord3 from, LevelData& level, Coord3 to, Dim3 ext) {
  for (index_t k = 0; k < ext.nz; ++k)
    for (index_t j = 0; j < ext.ny; ++j) {
      const float* row = &src.at(from.x, from.y + j, from.z + k);
      const index_t at = level.data.dims().index(to.x, to.y + j, to.z + k);
      std::copy(row, row + ext.nx, level.data.data() + at);
      std::fill_n(level.mask.data() + at, ext.nx, std::uint8_t{1});
    }
}

void require_level_dims(const UnitBlockSet& set, const LevelData& level) {
  MRC_REQUIRE(level.data.dims() == set.level_dims, "level dims mismatch");
  MRC_REQUIRE(level.mask.dims() == set.level_dims, "mask dims mismatch");
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

/// The block ids in stack slot order (Morton order of their coordinates),
/// shared by gather_stack and scatter_stack.
std::vector<index_t> morton_order(const UnitBlockSet& set) {
  std::vector<index_t> order = set.block_ids;
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return morton3(set.block_coord(a)) < morton3(set.block_coord(b));
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

/// Sample origin of stack slot `s` in an `arr` arrangement of u^3 slots.
Coord3 slot_origin(Dim3 arr, index_t s, index_t u) {
  return scaled({s % arr.nx, (s / arr.nx) % arr.ny, s / (arr.nx * arr.ny)}, u);
}

}  // namespace

Dim3 merged_dims(const UnitBlockSet& set, MergeKind kind, bool padded) {
  const index_t u = set.unit;
  if (kind == MergeKind::linear) {
    const index_t pitch = padded ? u + 1 : u;
    return {pitch, pitch, u * set.block_count()};
  }
  MRC_REQUIRE(kind == MergeKind::stack && !padded, "only linear and stack merges fill one "
                                                    "array, and only linear is padded");
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const Dim3 arr = stack_arrangement(set.block_count());
  return {arr.nx * u, arr.ny * u, arr.nz * u};
}

FieldF gather_linear(const LevelData& level, const UnitBlockSet& set, bool pad,
                     PadKind kind, int threads) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  const index_t u = set.unit;
  MRC_REQUIRE(!pad || u >= 3, "padding extrapolates from three samples");
  FieldF merged(merged_dims(set, MergeKind::linear, pad));

  // Block b owns merged planes [b·u, (b+1)·u), so blocks gather in parallel.
  exec::parallel_for(set.block_count(), [&](index_t b) {
    const Coord3 c = set.block_coord(set.block_ids[static_cast<std::size_t>(b)]);
    for (index_t k = 0; k < u; ++k) {
      const index_t mz = b * u + k;
      for (index_t j = 0; j < u; ++j) {
        const float* src = &level.data.at(c.x * u, c.y * u + j, c.z * u + k);
        float* dst = &merged.at(0, j, mz);
        std::copy(src, src + u, dst);
        if (pad) dst[u] = pad_extrapolate(kind, dst[u - 1], dst[u - 2], dst[u - 3]);
      }
      if (pad) {
        // +y layer, including the +x column already written above.
        for (index_t i = 0; i <= u; ++i)
          merged.at(i, u, mz) = pad_extrapolate(kind, merged.at(i, u - 1, mz),
                                                merged.at(i, u - 2, mz), merged.at(i, u - 3, mz));
      }
    }
  }, threads);
  return merged;
}

void scatter_linear(const FieldF& merged, bool padded, const UnitBlockSet& set,
                    LevelData& level, int threads) {
  require_level_dims(set, level);
  MRC_REQUIRE(merged.dims() == merged_dims(set, MergeKind::linear, padded),
              "merged shape mismatch");
  const index_t u = set.unit;
  // One run of ascending blocks per lane keeps neighbours' shared lines on it.
  const index_t n = set.block_count();
  exec::for_slabs(n, exec::slab_count(n, threads), [&](index_t, index_t b0, index_t b1) {
    for (index_t b = b0; b < b1; ++b) {
      const Coord3 c = set.block_coord(set.block_ids[static_cast<std::size_t>(b)]);
      scatter_box(merged, {0, 0, b * u}, level, scaled(c, u), {u, u, u});
    }
  }, threads);
}

FieldF gather_stack(const LevelData& level, const UnitBlockSet& set) {
  FieldF merged(merged_dims(set, MergeKind::stack, false));
  const index_t u = set.unit;
  const index_t n = set.block_count();
  const Dim3 arr = stack_arrangement(n);
  const auto order = morton_order(set);
  for (index_t s = 0; s < arr.size(); ++s) {
    // Tail slots replicate the last real block to avoid a hard zero edge.
    const index_t id = order[static_cast<std::size_t>(std::min(s, n - 1))];
    copy_box(level.data, scaled(set.block_coord(id), u), merged, slot_origin(arr, s, u),
             {u, u, u});
  }
  return merged;
}

void scatter_stack(const FieldF& merged, const UnitBlockSet& set, LevelData& level) {
  require_level_dims(set, level);
  MRC_REQUIRE(merged.dims() == merged_dims(set, MergeKind::stack, false),
              "merged shape mismatch");
  const index_t u = set.unit;
  const Dim3 arr = stack_arrangement(set.block_count());
  const auto order = morton_order(set);
  for (index_t s = 0; s < set.block_count(); ++s)
    scatter_box(merged, slot_origin(arr, s, u), level,
                scaled(set.block_coord(order[static_cast<std::size_t>(s)]), u), {u, u, u});
}

namespace {

struct TacContext {
  const LevelData& level;
  const UnitBlockSet& set;
  const std::vector<std::uint8_t>& occupied;
  std::vector<TacBox>& out;
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
    TacBox box{lo, ext, FieldF({ext.nx * u, ext.ny * u, ext.nz * u})};
    copy_box(ctx.level.data, scaled(lo, u), box.data, {0, 0, 0}, box.data.dims());
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

std::vector<TacBox> gather_tac(const LevelData& level, const UnitBlockSet& set) {
  MRC_REQUIRE(set.block_count() > 0, "no blocks to merge");
  std::vector<std::uint8_t> occupied(static_cast<std::size_t>(set.block_grid.size()), 0);
  for (const index_t id : set.block_ids) occupied[static_cast<std::size_t>(id)] = 1;
  std::vector<TacBox> out;
  TacContext ctx{level, set, occupied, out};
  tac_recurse(ctx, {0, 0, 0}, set.block_grid);
  return out;
}

void scatter_tac(std::span<const TacBox> boxes, const UnitBlockSet& set, LevelData& level) {
  require_level_dims(set, level);
  const index_t u = set.unit;
  for (const TacBox& box : boxes) {
    const Coord3 o = box.origin_blocks;
    const Dim3 e = box.extent_blocks;
    MRC_REQUIRE(o.x >= 0 && o.y >= 0 && o.z >= 0 && o.x + e.nx <= set.block_grid.nx &&
                    o.y + e.ny <= set.block_grid.ny && o.z + e.nz <= set.block_grid.nz,
                "tac box outside the block grid");
    MRC_REQUIRE(box.data.dims() == Dim3(e.nx * u, e.ny * u, e.nz * u),
                "tac box samples do not match its extent");
    scatter_box(box.data, {0, 0, 0}, level, scaled(o, u), box.data.dims());
  }
}

}  // namespace mrc
