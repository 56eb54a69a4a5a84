#pragma once

// Runtime-dispatched SIMD kernels for the predictor+quantizer hot loops.
//
// The prediction-based codecs (interp, lorenzo, quantize) spend their time
// in rows of the same three shapes: a row-uniform prediction (linear or
// cubic interpolation along one axis for interp, a regression plane for
// lorenzo, the zero plane for quantize) followed by the LinearQuantizer
// encode or decode of every element. These kernels run that row 4 lanes at
// a time — predictions and the quantizer's double-precision checks in
// vector registers, outliers collected from a lane mask and patched after
// the store — and are required to be BIT-IDENTICAL to the scalar rows:
// same operation order, same single roundings, llround's
// round-half-away-from-zero emulated exactly (magic-number round-to-even
// plus a sign-aware tie correction). The frozen-format goldens pin this;
// tests/test_simd_kernels.cpp compares the vector path against scalar lane
// by lane.
//
// Two paths: the scalar rows (LinearQuantizer per element, always
// available) and AVX2 (one 256-bit double vector per step, compiled under a
// target("avx2") pragma in simd_kernels.cpp and taken only when the CPU
// reports AVX2). Each call picks its path with active_isa(); x86 CPUs
// without AVX2 run the scalar rows. FMA is deliberately never enabled: a
// fused multiply-add changes roundings and would break bit-identity with
// the scalar path. force_isa() lets tests and benches pin scalar.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned.h"

namespace mrc::simd {

enum class Isa : std::uint8_t { scalar = 0, avx2 = 1 };

/// Best ISA this build + CPU supports.
[[nodiscard]] Isa best_isa();

/// Currently dispatched ISA (best_isa() unless force_isa() lowered it).
[[nodiscard]] Isa active_isa();

/// Pins dispatch to `isa` (clamped to best_isa()); returns what was applied.
/// For tests and benches — e.g. forcing scalar to produce the baseline side
/// of a bit-identity comparison.
Isa force_isa(Isa isa);

const char* isa_name(Isa isa);

// Encode kernels: quantize row `orig[0..n)` against the row-uniform
// prediction, writing codes[0..n) and recon[0..n); outlier values append to
// `outliers` in ascending lane order (exactly the scalar push order).
//   linear   pred_i = 0.5 * (float)(lo[i] + hi[i])
//   cubic    pred_i = (-a[i] + 9*b[i] + 9*c[i] - d[i]) / 16   (doubles)
//   plane    pred_i = ((m + gx*((double)i - ci)) + aj) + ak
void quantize_row_linear(const float* orig, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius,
                         std::uint32_t* codes, float* recon,
                         AlignedVec<float>& outliers);
void quantize_row_cubic(const float* orig, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers);
void quantize_row_plane(const float* orig, std::size_t n, double m, double gx,
                        double ci, double aj, double ak, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers);

// Decode kernels: reconstruct recon[0..n) from codes[0..n) and the same
// row-uniform prediction; code 0 consumes outliers[outlier_pos++] (throws
// CodecError "outlier underrun" when exhausted).
void dequantize_row_linear(const std::uint32_t* codes, const float* lo,
                           const float* hi, std::size_t n, double eb,
                           std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& outlier_pos);
void dequantize_row_cubic(const std::uint32_t* codes, const float* a,
                          const float* b, const float* c, const float* d,
                          std::size_t n, double eb, std::uint32_t radius,
                          float* recon, std::span<const float> outliers,
                          std::size_t& outlier_pos);
void dequantize_row_plane(const std::uint32_t* codes, std::size_t n, double m,
                          double gx, double ci, double aj, double ak, double eb,
                          std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& outlier_pos);

}  // namespace mrc::simd
