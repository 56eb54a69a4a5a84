#pragma once

// Multi-resolution data model covering both AMR output and "adaptive data"
// derived from uniform grids (paper §II-B / §III preamble).
//
// Every level stores a full grid at its own resolution plus a validity mask:
// a cell is valid at exactly one level (the finest level that covers its
// region). Refinement is block-granular — a `block_size`^3 region of the
// finest grid is assigned to one level as a whole — matching block-structured
// AMR codes (AMReX) and making unit-block extraction exact.

#include <vector>

#include "grid/field.h"
#include "grid/field_ops.h"

namespace mrc {

struct LevelData {
  FieldF data;      ///< full grid at this level's resolution
  MaskField mask;   ///< 1 where this level is the valid representation
  index_t ratio;    ///< refinement ratio vs the finest level (1, 2, 4, ...)

  /// Fraction of this level's cells that are valid (the paper's "density").
  [[nodiscard]] double density() const;
  /// Number of valid cells.
  [[nodiscard]] index_t valid_count() const;
};

struct MultiResField {
  std::vector<LevelData> levels;  ///< [0] = finest
  Dim3 fine_dims;
  index_t block_size = 16;  ///< refinement granularity on the finest grid

  /// Composes a uniform fine-resolution field: valid fine cells where
  /// present, trilinear prolongation of coarser levels elsewhere. Level l must
  /// be fine_dims coarsened 2^l-fold. Runs on `threads` exec-pool lanes (0 =
  /// hardware; bit-identical for any width).
  [[nodiscard]] FieldF reconstruct_uniform(int threads = 0) const;

  /// Total number of stored (valid) samples across levels.
  [[nodiscard]] index_t stored_samples() const;
};

namespace amr {

/// Builds an AMR-style hierarchy from a uniform fine field.
///
/// The finest grid is tiled into block_size^3 blocks, ranked by value range
/// (the range-threshold criterion of [Kumar et al., SC'14] the paper adopts);
/// the top `fractions[0]` stay at level 0, the next `fractions[1]` at level 1
/// (2x coarser), and so on. The last level absorbs the remainder, so
/// `fractions` needs one entry per level and they must sum to <= 1 with the
/// final entry ignored in favor of "everything left". Runs on `threads`
/// exec-pool lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] MultiResField build_hierarchy(const FieldF& fine, index_t block_size,
                                            std::span<const double> fractions,
                                            int threads = 0);

}  // namespace amr

}  // namespace mrc
