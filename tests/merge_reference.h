#pragma once

// Test-side reference for the linear merge's inverse. The library scatters
// a decoded linear merge straight into the level grid (scatter_linear);
// this is the separate block split it replaced, kept to check the fused
// path against strip_pad_xy -> unmerge_linear -> scatter_unit_blocks.

#include "common/require.h"
#include "merge/merge_strategies.h"

namespace mrc::test {

/// Splits a u × u × (u·n) linear merge back into `set.data`, block b from
/// planes [b·u, (b+1)·u) (ids must be set).
inline void unmerge_linear(const FieldF& merged, UnitBlockSet& set) {
  const index_t u = set.unit;
  MRC_REQUIRE(merged.dims() == Dim3(u, u, u * set.block_count()), "merged shape mismatch");
  set.data.assign(static_cast<std::size_t>(set.block_count() * set.values_per_block()), 0.0f);
  float* dst = set.data.data();
  for (index_t b = 0; b < set.block_count(); ++b)
    for (index_t k = 0; k < u; ++k)
      for (index_t j = 0; j < u; ++j)
        for (index_t i = 0; i < u; ++i) *dst++ = merged.at(i, j, b * u + k);
}

}  // namespace mrc::test
