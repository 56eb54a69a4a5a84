#include "merge/unit_blocks.h"

namespace mrc {

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
        // Refinement is block-granular, so any valid cell marks the block.
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

}  // namespace mrc
