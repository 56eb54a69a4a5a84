#pragma once

// SZ3MR Improvement 1 (paper §III-A, Figs. 7-8): pad one extrapolated layer
// onto the two small dimensions (x, y) of a linearly merged array, turning
// each u = 2^k extent into 2^k + 1 so the interpolation predictor never has
// to extrapolate at inner points. The paper tests constant, linear and
// quadratic pad-value extrapolation and picks linear; all three are kept for
// the ablation bench.

#include "grid/field.h"

namespace mrc {

enum class PadKind : std::uint8_t { constant = 0, linear = 1, quadratic = 2 };

/// The pad value one step past the end of a line, from its last `avail`
/// samples a = f[n-1], b = f[n-2], c = f[n-3]; a short line falls back to a
/// lower order.
[[nodiscard]] inline float pad_extrapolate(PadKind kind, float a, float b, float c,
                                           int avail = 3) {
  switch (kind) {
    case PadKind::constant:
      return a;
    case PadKind::linear:
      return avail >= 2 ? 2.0f * a - b : a;
    case PadKind::quadratic:
      if (avail >= 3) return 3.0f * a - 3.0f * b + c;
      return avail >= 2 ? 2.0f * a - b : a;
  }
  return a;
}

/// Appends one extrapolated layer along +x and +y.
[[nodiscard]] FieldF pad_xy(const FieldF& merged, PadKind kind);

/// Drops the last x/y layer (inverse of pad_xy's shape change).
[[nodiscard]] FieldF strip_pad_xy(const FieldF& padded);

/// Appends one extrapolated layer along every axis whose extent is odd, so a
/// following restrict_half averages only full 2x2x2 boxes — the 3-axis
/// generalization of pad_xy used by the adaptive container's per-brick
/// restriction chain (the clipped-box average at an odd edge is exactly the
/// boundary artifact the paper's padding improvement removes).
[[nodiscard]] FieldF pad_to_even(const FieldF& f, PadKind kind);

/// Size overhead factor of padding, (u+1)^2 / u^2 (paper §III-A).
[[nodiscard]] double padding_overhead(index_t u);

}  // namespace mrc
