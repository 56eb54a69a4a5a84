#pragma once

// The three unit-block arrangements compared in the paper (Fig. 6, part 2):
//
//  * linear merge — concatenate blocks along z into a u × u × (u·n) array.
//    Two tiny dimensions, but consecutive blocks stay in extraction order.
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

#include <vector>

#include "merge/padding.h"
#include "merge/unit_blocks.h"

namespace mrc {

enum class MergeKind : std::uint8_t { linear = 0, stack = 1, tac = 2 };

/// u × u × (u·n) concatenation along z, in block_ids order.
[[nodiscard]] FieldF merge_linear(const UnitBlockSet& set);

/// Near-cubic stacking in Morton order; empty tail slots replicate the last
/// block so the tail stays smooth.
[[nodiscard]] FieldF merge_stack(const UnitBlockSet& set);
void unmerge_stack(const FieldF& merged, UnitBlockSet& set);

/// Single-pass gathers used on the in-situ hot path (Table IV): they read
/// straight from the level grid into the merged layout, so "collect data to
/// the compression buffer" costs exactly one pass. `set` only needs ids and
/// geometry (its payload vector stays untouched).
///
/// gather_linear optionally fuses the +x/+y padding layer into the same
/// pass; the result is bit-identical to pad_xy(merge_linear(set), kind).
/// Blocks are gathered on `threads` exec-pool lanes (0 = hardware).
[[nodiscard]] FieldF gather_linear(const LevelData& level, const UnitBlockSet& set,
                                   bool pad, PadKind kind, int threads = 1);

/// Inverse of gather_linear, straight into the level grid: block b of
/// `merged` is its z-range [b·u, (b+1)·u), with row pitch u+1 and u+1 rows
/// per plane when `padded` (the pad layer is skipped, never copied). Each
/// block's rows land in `level.data` and set `level.mask`, blocks on
/// `threads` lanes. Same result as stripping the pad, splitting the array
/// into blocks and scatter_unit_blocks, in one pass. `level` must be
/// pre-sized to set.level_dims.
void scatter_linear(const FieldF& merged, bool padded, const UnitBlockSet& set,
                    LevelData& level, int threads = 1);
/// Morton-ordered stacked gather (AMRIC's arrangement) in one pass —
/// inherently scattered writes plus the ordering pass.
[[nodiscard]] FieldF gather_stack(const LevelData& level, const UnitBlockSet& set);

/// Occupancy-only extraction: fills ids and geometry without copying data.
[[nodiscard]] UnitBlockSet scan_unit_blocks(const LevelData& level, index_t unit);

/// One contiguous region produced by the TAC-style recursive merge.
struct TacBox {
  Coord3 origin_blocks;  ///< position in the unit-block grid
  Dim3 extent_blocks;    ///< size in unit blocks
  FieldF data;           ///< gathered samples, extent_blocks * u per axis
};

[[nodiscard]] std::vector<TacBox> merge_tac(const UnitBlockSet& set);
void unmerge_tac(std::span<const TacBox> boxes, UnitBlockSet& set);

}  // namespace mrc
