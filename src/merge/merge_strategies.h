#pragma once

// The three unit-block arrangements compared in the paper (Fig. 6, part 2):
//
//  * linear merge — concatenate blocks along z into a u × u × (u·n) array.
//    Two tiny dimensions, but consecutive blocks stay in scan order.
//    This is the baseline our SZ3MR builds on (padding fixes the tiny dims).
//  * stack merge (AMRIC) — place blocks into a near-cubic arrangement.
//    Balanced extents, but stacks non-neighboring blocks against each other,
//    creating unsmooth internal boundaries. Blocks are placed in Morton
//    order of their original coordinates (AMRIC's locality-preserving
//    rearrangement — the "more complex and computationally intensive"
//    pre-process of Table IV).
//  * TAC merge — recursive bisection of the occupied block bounding box;
//    fully-occupied sub-boxes become one contiguous 3-D region each.
//    Preserves real adjacency but emits many variably-shaped boxes, each
//    compressed separately (TAC's encoding overhead).
//
// Each arrangement has one gather and one scatter, both against the level
// grid. The gather copies the occupied blocks straight into the layout, so
// "collect data to the compression buffer" (Table IV) is a single pass; the
// scatter copies a decoded layout back into `level.data` and sets
// `level.mask` over the blocks it covers. The UnitBlockSet from
// scan_unit_blocks supplies only block ids and geometry.

#include <span>
#include <vector>

#include "merge/padding.h"
#include "merge/unit_blocks.h"

namespace mrc {

enum class MergeKind : std::uint8_t { linear = 0, stack = 1, tac = 2 };

/// Extents of the one array a linear or stack merge of `set` fills:
/// u × u × (u·n) for linear, (u+1) × (u+1) × (u·n) when `padded` (only a
/// linear merge is), and the near-cubic arrangement of u^3 slots for stack.
[[nodiscard]] Dim3 merged_dims(const UnitBlockSet& set, MergeKind kind, bool padded);

/// Linear merge, blocks in block_ids order along z. `pad` fuses the +x/+y
/// padding layer into the same pass (the result equals pad_xy of the
/// unpadded gather; padding needs u >= 3). Blocks are gathered on `threads`
/// exec-pool lanes (0 = hardware).
[[nodiscard]] FieldF gather_linear(const LevelData& level, const UnitBlockSet& set,
                                   bool pad, PadKind kind, int threads = 1);

/// Inverse of gather_linear: block b of `merged` is its z-range
/// [b·u, (b+1)·u); when `padded` the pad layer is skipped, never copied.
/// Blocks are scattered on `threads` lanes. `level` must be pre-sized to
/// set.level_dims.
void scatter_linear(const FieldF& merged, bool padded, const UnitBlockSet& set,
                    LevelData& level, int threads = 1);

/// Stack merge: slots filled x-fastest in Morton order of the block
/// coordinates; empty tail slots replicate the last block so the tail stays
/// smooth. Inherently scattered reads plus the ordering pass.
[[nodiscard]] FieldF gather_stack(const LevelData& level, const UnitBlockSet& set);

/// Inverse of gather_stack (the tail slots are dropped). `level` must be
/// pre-sized to set.level_dims.
void scatter_stack(const FieldF& merged, const UnitBlockSet& set, LevelData& level);

/// One contiguous region produced by the TAC-style recursive merge. It is a
/// fully occupied run of blocks, so its samples are the level grid over
/// [origin·u, (origin+extent)·u).
struct TacBox {
  Coord3 origin_blocks;  ///< position in the unit-block grid
  Dim3 extent_blocks;    ///< size in unit blocks
  FieldF data;           ///< gathered samples, extent_blocks * u per axis
};

[[nodiscard]] std::vector<TacBox> gather_tac(const LevelData& level, const UnitBlockSet& set);

/// Inverse of gather_tac. Every box must lie inside the block grid and hold
/// extent·u samples per axis; `level` must be pre-sized to set.level_dims.
void scatter_tac(std::span<const TacBox> boxes, const UnitBlockSet& set, LevelData& level);

}  // namespace mrc
