#pragma once

// Uniform partitioning of one multi-resolution level into u^3 "unit blocks"
// (paper Fig. 6, part 1). A set lists the occupied blocks (those holding a
// valid cell under the level mask) and the geometry to place them; it holds
// no samples. Each merge layout (merge_strategies.h) gathers the blocks'
// samples straight from the level grid and scatters them back there.

#include <vector>

#include "grid/multires.h"

namespace mrc {

struct UnitBlockSet {
  index_t unit = 0;        ///< u — unit block edge length
  Dim3 level_dims;         ///< extents of the level grid
  Dim3 block_grid;         ///< number of unit blocks per axis
  std::vector<index_t> block_ids;  ///< occupied blocks, ascending linear ids

  [[nodiscard]] index_t block_count() const {
    return static_cast<index_t>(block_ids.size());
  }
  [[nodiscard]] Coord3 block_coord(index_t id) const {
    return {id % block_grid.nx, (id / block_grid.nx) % block_grid.ny,
            id / (block_grid.nx * block_grid.ny)};
  }
};

/// Lists the occupied unit blocks of a level. Level extents must be
/// divisible by `unit` (guaranteed when unit = hierarchy block size / ratio).
[[nodiscard]] UnitBlockSet scan_unit_blocks(const LevelData& level, index_t unit);

}  // namespace mrc
