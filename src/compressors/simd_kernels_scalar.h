#pragma once

// Scalar reference implementations of the predict+quantize row kernels
// ("compressors/simd_kernels.h"). These are exact transcriptions of the
// loops the codecs used before vectorization — every cast, every operation
// order — and serve three masters: the always-available scalar ISA, the
// sub-4-element tails of the SIMD kernels, and the oracle side of the
// bit-identity tests. Any change here is a frozen-format change.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned.h"
#include "common/require.h"

namespace mrc::simd::detail {

/// Quantizer constants hoisted out of the row loops. All products here are
/// exact or match the scalar expressions they replace: 2.0 * eb is an exact
/// power-of-two scale, so range == 2.0 * eb * radius and the per-element
/// diff / (2.0 * eb) see bit-identical operands.
struct QP {
  double eb;
  double two_eb;    ///< 2.0 * eb (exact)
  double range;     ///< 2.0 * eb * radius, the outlier threshold
  double radius_d;  ///< (double)radius
  std::uint32_t radius;
};

inline QP make_qp(double eb, std::uint32_t radius) {
  return {eb, 2.0 * eb, 2.0 * eb * static_cast<double>(radius),
          static_cast<double>(radius), radius};
}

/// LinearQuantizer::encode, verbatim (compressors/quantizer.h): quantize one
/// value against its prediction, writing recon and returning the code;
/// unquantizable values escape to `outliers` with code 0.
template <typename OutVec>
inline std::uint32_t quantize_one(float orig, double pred, const QP& p, float& recon,
                                  OutVec& outliers) {
  const double diff = static_cast<double>(orig) - pred;
  if (std::abs(diff) < p.range) {
    const long long q = std::llround(diff / p.two_eb);
    if (std::llabs(q) < static_cast<long long>(p.radius)) {
      const float cand = static_cast<float>(pred + p.two_eb * static_cast<double>(q));
      if (std::abs(static_cast<double>(cand) - static_cast<double>(orig)) <= p.eb) {
        recon = cand;
        return static_cast<std::uint32_t>(q + p.radius);
      }
    }
  }
  outliers.push_back(orig);
  recon = orig;
  return 0;
}

/// LinearQuantizer::decode, verbatim.
inline float dequantize_one(std::uint32_t code, double pred, const QP& p,
                            std::span<const float> outliers, std::size_t& pos) {
  if (code == 0) {
    if (pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
    return outliers[pos++];
  }
  const auto q = static_cast<std::int64_t>(code) - static_cast<std::int64_t>(p.radius);
  return static_cast<float>(pred + p.two_eb * static_cast<double>(q));
}

// Row-uniform predictions, matching the codec expressions exactly.
// Linear adds the two float neighbours in FLOAT precision first (that is
// what `0.5 * (line[a] + line[b])` does with float operands) — the SIMD
// kernels must do the same (addps, then convert, then * 0.5).
inline double pred_linear(float lo, float hi) { return 0.5 * (lo + hi); }
inline double pred_cubic(float a, float b, float c, float d) {
  return (-static_cast<double>(a) + 9.0 * static_cast<double>(b) +
          9.0 * static_cast<double>(c) - static_cast<double>(d)) /
         16.0;
}
inline double pred_plane(double m, double gx, double di, double aj, double ak) {
  return ((m + gx * di) + aj) + ak;
}

// Scalar row kernels (also the tails of the vector ones).

inline void s_quantize_linear(const float* orig, const float* lo, const float* hi,
                              std::size_t n, double eb, std::uint32_t radius,
                              std::uint32_t* codes, float* recon,
                              AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] = quantize_one(orig[i], pred_linear(lo[i], hi[i]), p, recon[i], outliers);
}

inline void s_quantize_cubic(const float* orig, const float* a, const float* b,
                             const float* c, const float* d, std::size_t n, double eb,
                             std::uint32_t radius, std::uint32_t* codes, float* recon,
                             AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] =
        quantize_one(orig[i], pred_cubic(a[i], b[i], c[i], d[i]), p, recon[i], outliers);
}

inline void s_quantize_plane(const float* orig, std::size_t n, double m, double gx,
                             double ci, double aj, double ak, double eb,
                             std::uint32_t radius, std::uint32_t* codes, float* recon,
                             AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i) {
    const double pred = pred_plane(m, gx, static_cast<double>(i) - ci, aj, ak);
    codes[i] = quantize_one(orig[i], pred, p, recon[i], outliers);
  }
}

inline void s_dequantize_linear(const std::uint32_t* codes, const float* lo,
                                const float* hi, std::size_t n, double eb,
                                std::uint32_t radius, float* recon,
                                std::span<const float> outliers, std::size_t& pos,
                                std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] = dequantize_one(codes[i], pred_linear(lo[i], hi[i]), p, outliers, pos);
}

inline void s_dequantize_cubic(const std::uint32_t* codes, const float* a,
                               const float* b, const float* c, const float* d,
                               std::size_t n, double eb, std::uint32_t radius,
                               float* recon, std::span<const float> outliers,
                               std::size_t& pos, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] =
        dequantize_one(codes[i], pred_cubic(a[i], b[i], c[i], d[i]), p, outliers, pos);
}

inline void s_dequantize_plane(const std::uint32_t* codes, std::size_t n, double m,
                               double gx, double ci, double aj, double ak, double eb,
                               std::uint32_t radius, float* recon,
                               std::span<const float> outliers, std::size_t& pos,
                               std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i) {
    const double pred = pred_plane(m, gx, static_cast<double>(i) - ci, aj, ak);
    recon[i] = dequantize_one(codes[i], pred, p, outliers, pos);
  }
}

}  // namespace mrc::simd::detail
