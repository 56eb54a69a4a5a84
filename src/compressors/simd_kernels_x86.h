#pragma once

// Vector bodies of the predict+quantize row kernels, included by the per-ISA
// translation units with
//   MRC_SIMD_NS    the implementation namespace (e.g. ksse2 / kavx2)
//   MRC_SIMD_AVX2  1 for one 256-bit double vector per step, 0 for a pair of
//                  128-bit vectors (the x86-64 SSE2 baseline)
//
// Everything here must stay bit-identical to the scalar reference in
// simd_kernels_scalar.h. The rules that make that true:
//   * every scalar operation maps to exactly one vector operation in the
//     same order (no FMA — these TUs are never compiled with -mfma, and
//     contraction cannot happen without it),
//   * llround is emulated as magic-number round-to-even ((x + 1.5*2^52) -
//     1.5*2^52, exact for |x| < 2^51, guaranteed by the radius guard) plus a
//     sign-aware tie correction: +1 when x - r == +0.5 and x > 0, -1 when
//     x - r == -0.5 and x < 0 — which is precisely round-half-away-from-zero,
//   * negation is a sign-bit xor (vsub(0, a) would flip the sign of zero
//     differently),
//   * lanes that fail any quantizer check compute garbage freely and are
//     masked out of the code/recon stores; outliers are patched from the
//     lane mask in ascending order, matching the scalar push order,
//   * radius >= 2^30 (codes would not fit int32) falls back to scalar.

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "compressors/simd_kernels.h"
#include "compressors/simd_kernels_scalar.h"

namespace mrc::simd::MRC_SIMD_NS {

namespace sd = mrc::simd::detail;

#if MRC_SIMD_AVX2

using vd = __m256d;
inline vd vset1(double x) { return _mm256_set1_pd(x); }
inline vd vadd(vd a, vd b) { return _mm256_add_pd(a, b); }
inline vd vsub(vd a, vd b) { return _mm256_sub_pd(a, b); }
inline vd vmul(vd a, vd b) { return _mm256_mul_pd(a, b); }
inline vd vdiv(vd a, vd b) { return _mm256_div_pd(a, b); }
inline vd vand(vd a, vd b) { return _mm256_and_pd(a, b); }
inline vd vandnot(vd a, vd b) { return _mm256_andnot_pd(a, b); }  // ~a & b
inline vd vxor(vd a, vd b) { return _mm256_xor_pd(a, b); }
inline vd cmp_lt(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
inline vd cmp_le(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
inline vd cmp_eq(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
inline vd cvt_f(__m128 f) { return _mm256_cvtps_pd(f); }
inline __m128 cvt_d(vd x) { return _mm256_cvtpd_ps(x); }
inline __m128i cvtt_i(vd x) { return _mm256_cvttpd_epi32(x); }
inline vd cvt_i(__m128i x) { return _mm256_cvtepi32_pd(x); }
/// Narrows a 64-bit lane mask to the matching 32-bit float-lane mask.
inline __m128 mask_ps(vd m) {
  const __m128 lo = _mm_castpd_ps(_mm256_castpd256_pd128(m));
  const __m128 hi = _mm_castpd_ps(_mm256_extractf128_pd(m, 1));
  return _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
}
inline vd viota(double base) {
  return _mm256_setr_pd(base, base + 1.0, base + 2.0, base + 3.0);
}

#else  // SSE2 pair

struct vd {
  __m128d lo, hi;
};
inline vd vset1(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
inline vd vadd(vd a, vd b) { return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)}; }
inline vd vsub(vd a, vd b) { return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)}; }
inline vd vmul(vd a, vd b) { return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)}; }
inline vd vdiv(vd a, vd b) { return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)}; }
inline vd vand(vd a, vd b) { return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)}; }
inline vd vandnot(vd a, vd b) {
  return {_mm_andnot_pd(a.lo, b.lo), _mm_andnot_pd(a.hi, b.hi)};
}
inline vd vxor(vd a, vd b) { return {_mm_xor_pd(a.lo, b.lo), _mm_xor_pd(a.hi, b.hi)}; }
inline vd cmp_lt(vd a, vd b) {
  return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
}
inline vd cmp_le(vd a, vd b) {
  return {_mm_cmple_pd(a.lo, b.lo), _mm_cmple_pd(a.hi, b.hi)};
}
inline vd cmp_eq(vd a, vd b) {
  return {_mm_cmpeq_pd(a.lo, b.lo), _mm_cmpeq_pd(a.hi, b.hi)};
}
inline vd cvt_f(__m128 f) {
  return {_mm_cvtps_pd(f), _mm_cvtps_pd(_mm_movehl_ps(f, f))};
}
inline __m128 cvt_d(vd x) {
  return _mm_movelh_ps(_mm_cvtpd_ps(x.lo), _mm_cvtpd_ps(x.hi));
}
inline __m128i cvtt_i(vd x) {
  return _mm_unpacklo_epi64(_mm_cvttpd_epi32(x.lo), _mm_cvttpd_epi32(x.hi));
}
inline vd cvt_i(__m128i x) {
  return {_mm_cvtepi32_pd(x),
          _mm_cvtepi32_pd(_mm_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)))};
}
inline __m128 mask_ps(vd m) {
  return _mm_shuffle_ps(_mm_castpd_ps(m.lo), _mm_castpd_ps(m.hi),
                        _MM_SHUFFLE(2, 0, 2, 0));
}
inline vd viota(double base) {
  return {_mm_setr_pd(base, base + 1.0), _mm_setr_pd(base + 2.0, base + 3.0)};
}

#endif

inline vd vabs(vd x) { return vandnot(vset1(-0.0), x); }
inline vd vneg(vd x) { return vxor(x, vset1(-0.0)); }

/// Vector quantizer constants (sd::QP broadcast, plus llround helpers).
struct QV {
  vd two_eb, range, radius_d, eb, half, neg_half, zero, one, magic;
};
inline QV make_qv(const sd::QP& p) {
  return {vset1(p.two_eb), vset1(p.range),  vset1(p.radius_d),
          vset1(p.eb),     vset1(0.5),      vset1(-0.5),
          vset1(0.0),      vset1(1.0),      vset1(6755399441055744.0)};  // 2^52+2^51
}

/// std::llround in the double domain: round-to-even via the magic constant,
/// then push exact .5 ties away from zero. Valid for |x| < 2^51; lanes
/// outside (which always fail the quantizer's range check) produce garbage
/// that the caller masks off.
inline vd round_llround(vd x, const QV& qv) {
  vd r = vsub(vadd(x, qv.magic), qv.magic);
  const vd d = vsub(x, r);  // exact: |d| <= 0.5
  r = vadd(r, vand(vand(cmp_eq(d, qv.half), cmp_lt(qv.zero, x)), qv.one));
  r = vsub(r, vand(vand(cmp_eq(d, qv.neg_half), cmp_lt(x, qv.zero)), qv.one));
  return r;
}

/// Quantizes 4 lanes against `pred`, storing codes+recon; returns the
/// outlier lane mask (bit b set => lane b escaped).
inline int quant4(__m128 forig, vd pred, const QV& qv, std::uint32_t* codes,
                  float* recon) {
  const vd xd = cvt_f(forig);
  const vd diff = vsub(xd, pred);
  const vd ok1 = cmp_lt(vabs(diff), qv.range);
  const vd q = round_llround(vdiv(diff, qv.two_eb), qv);
  const vd ok2 = cmp_lt(vabs(q), qv.radius_d);
  const __m128 candf = cvt_d(vadd(pred, vmul(qv.two_eb, q)));
  const vd candd = cvt_f(candf);
  const vd ok3 = cmp_le(vabs(vsub(candd, xd)), qv.eb);
  const __m128 mf = mask_ps(vand(ok1, vand(ok2, ok3)));
  const __m128i code = _mm_and_si128(cvtt_i(vadd(q, qv.radius_d)), _mm_castps_si128(mf));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes), code);
  _mm_storeu_ps(recon, _mm_or_ps(_mm_and_ps(mf, candf), _mm_andnot_ps(mf, forig)));
  return _mm_movemask_ps(mf) ^ 0xf;
}

inline void push_bad(const float* orig, int bad, AlignedVec<float>& outliers) {
  while (bad != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(bad));
    outliers.push_back(orig[b]);
    bad &= bad - 1;
  }
}

/// Dequantizes 4 lanes; outlier (code 0) lanes hold garbage for the caller
/// to patch. Returns the outlier lane mask.
inline int dequant4(const std::uint32_t* codes, vd pred, const QV& qv, float* recon) {
  const __m128i ci = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes));
  const int zmask =
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(ci, _mm_setzero_si128())));
  const vd qd = vsub(cvt_i(ci), qv.radius_d);
  _mm_storeu_ps(recon, cvt_d(vadd(pred, vmul(qv.two_eb, qd))));
  return zmask;
}

inline void patch_outliers(float* recon, int zmask, std::span<const float> outliers,
                           std::size_t& pos) {
  while (zmask != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(zmask));
    if (pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
    recon[b] = outliers[pos++];
    zmask &= zmask - 1;
  }
}

/// Codes are masked into int32 lanes, so a radius at or past 2^30 (code
/// range 2*radius would overflow) takes the scalar path instead.
inline bool vectorizable(std::uint32_t radius, std::size_t n) {
  return radius < (1u << 30) && n >= 4;
}

void k_quantize_linear(const float* orig, const float* lo, const float* hi,
                       std::size_t n, double eb, std::uint32_t radius,
                       std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Neighbour sum in FLOAT first — that is what the scalar expression does.
    const __m128 s = _mm_add_ps(_mm_loadu_ps(lo + i), _mm_loadu_ps(hi + i));
    const vd pred = vmul(qv.half, cvt_f(s));
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers, i);
}

void k_quantize_cubic(const float* orig, const float* a, const float* b, const float* c,
                      const float* d, std::size_t n, double eb, std::uint32_t radius,
                      std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd nine = vset1(9.0), sixteen = vset1(16.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd A = cvt_f(_mm_loadu_ps(a + i)), B = cvt_f(_mm_loadu_ps(b + i));
    const vd C = cvt_f(_mm_loadu_ps(c + i)), D = cvt_f(_mm_loadu_ps(d + i));
    vd t = vadd(vneg(A), vmul(nine, B));
    t = vadd(t, vmul(nine, C));
    t = vsub(t, D);
    const vd pred = vdiv(t, sixteen);
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers, i);
}

void k_quantize_plane(const float* orig, std::size_t n, double m, double gx, double ci,
                      double aj, double ak, double eb, std::uint32_t radius,
                      std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_plane(orig, n, m, gx, ci, aj, ak, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd mm = vset1(m), vgx = vset1(gx), vci = vset1(ci);
  const vd vaj = vset1(aj), vak = vset1(ak);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd di = vsub(viota(static_cast<double>(i)), vci);
    const vd pred = vadd(vadd(vadd(mm, vmul(vgx, di)), vaj), vak);
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_plane(orig, n, m, gx, ci, aj, ak, eb, radius, codes, recon, outliers, i);
}

void k_dequantize_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius, float* recon,
                         std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 s = _mm_add_ps(_mm_loadu_ps(lo + i), _mm_loadu_ps(hi + i));
    const vd pred = vmul(qv.half, cvt_f(s));
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos, i);
}

void k_dequantize_cubic(const std::uint32_t* codes, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, float* recon,
                        std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd nine = vset1(9.0), sixteen = vset1(16.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd A = cvt_f(_mm_loadu_ps(a + i)), B = cvt_f(_mm_loadu_ps(b + i));
    const vd C = cvt_f(_mm_loadu_ps(c + i)), D = cvt_f(_mm_loadu_ps(d + i));
    vd t = vadd(vneg(A), vmul(nine, B));
    t = vadd(t, vmul(nine, C));
    t = vsub(t, D);
    const vd pred = vdiv(t, sixteen);
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos, i);
}

void k_dequantize_plane(const std::uint32_t* codes, std::size_t n, double m, double gx,
                        double ci, double aj, double ak, double eb, std::uint32_t radius,
                        float* recon, std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_plane(codes, n, m, gx, ci, aj, ak, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd mm = vset1(m), vgx = vset1(gx), vci = vset1(ci);
  const vd vaj = vset1(aj), vak = vset1(ak);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd di = vsub(viota(static_cast<double>(i)), vci);
    const vd pred = vadd(vadd(vadd(mm, vmul(vgx, di)), vaj), vak);
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_plane(codes, n, m, gx, ci, aj, ak, eb, radius, recon, outliers, pos, i);
}

inline constexpr mrc::simd::detail::KernelTable kTable = {
    k_quantize_linear,   k_quantize_cubic,   k_quantize_plane,
    k_dequantize_linear, k_dequantize_cubic, k_dequantize_plane,
};

}  // namespace mrc::simd::MRC_SIMD_NS
