#include "compressors/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "compressors/quantizer.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MRC_SIMD_X86 1
#endif

namespace mrc::simd {

namespace {

// The three row-uniform predictions, matching the codec expressions
// exactly; the AVX2 bodies below compute the same ones four lanes at a time.

/// The two float neighbours add in FLOAT precision first: that is what the
/// codec's `0.5 * (line[a] + line[b])` does with float operands.
struct Linear {
  const float* lo;
  const float* hi;
  double operator()(std::size_t i) const { return 0.5 * (lo[i] + hi[i]); }
};

struct Cubic {
  const float* a;
  const float* b;
  const float* c;
  const float* d;
  double operator()(std::size_t i) const {
    return (-static_cast<double>(a[i]) + 9.0 * static_cast<double>(b[i]) +
            9.0 * static_cast<double>(c[i]) - static_cast<double>(d[i])) /
           16.0;
  }
};

struct Plane {
  double m, gx, ci, aj, ak;
  double operator()(std::size_t i) const {
    return ((m + gx * (static_cast<double>(i) - ci)) + aj) + ak;
  }
};

#ifdef MRC_SIMD_X86
/// Codes are masked into int32 lanes, so a radius at or past 2^30 (code
/// range 2*radius would overflow) takes the scalar rows instead.
bool vectorizable(std::uint32_t radius, std::size_t n) {
  return radius < (1u << 30) && n >= 4;
}

#pragma GCC push_options
#pragma GCC target("avx2")

// The AVX2 bodies: whole 4-lane steps of a row, leaving the tail to the
// scalar loop. Everything here must stay bit-identical to the scalar rows.
// The rules that make that true:
//   * every scalar operation maps to exactly one vector operation in the
//     same order (no FMA: the target is avx2 alone, and contraction cannot
//     happen without an FMA target),
//   * llround is emulated as magic-number round-to-even ((x + 1.5*2^52) -
//     1.5*2^52, exact for |x| < 2^51, guaranteed by the radius guard) plus a
//     sign-aware tie correction: +1 when x - r == +0.5 and x > 0, -1 when
//     x - r == -0.5 and x < 0 — which is precisely round-half-away-from-zero,
//   * negation is a sign-bit xor (0 - a would flip the sign of zero
//     differently),
//   * lanes that fail any quantizer check compute garbage freely and are
//     masked out of the code/recon stores; outliers are patched from the
//     lane mask in ascending order, matching the scalar push order.

/// Quantizer constants, broadcast once per row. two_eb and range are the
/// LinearQuantizer's 2.0 * eb and 2.0 * eb * radius, operand for operand.
struct QV {
  QV(double e, std::uint32_t radius)
      : eb(_mm256_set1_pd(e)),
        two_eb(_mm256_set1_pd(2.0 * e)),
        range(_mm256_set1_pd(2.0 * e * radius)),
        radius_d(_mm256_set1_pd(radius)) {}
  __m256d eb, two_eb, range, radius_d;
  __m256d half = _mm256_set1_pd(0.5), neg_half = _mm256_set1_pd(-0.5);
  __m256d zero = _mm256_setzero_pd(), one = _mm256_set1_pd(1.0);
  __m256d sign = _mm256_set1_pd(-0.0);
  __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
};

__m256d pred4(const Linear& p, std::size_t i) {
  const __m128 s = _mm_add_ps(_mm_loadu_ps(p.lo + i), _mm_loadu_ps(p.hi + i));
  return _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_cvtps_pd(s));
}

__m256d pred4(const Cubic& p, std::size_t i) {
  const __m256d nine = _mm256_set1_pd(9.0);
  const __m256d a = _mm256_cvtps_pd(_mm_loadu_ps(p.a + i));
  const __m256d b = _mm256_cvtps_pd(_mm_loadu_ps(p.b + i));
  const __m256d c = _mm256_cvtps_pd(_mm_loadu_ps(p.c + i));
  const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(p.d + i));
  const __m256d neg_a = _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  __m256d t = _mm256_add_pd(neg_a, _mm256_mul_pd(nine, b));
  t = _mm256_add_pd(t, _mm256_mul_pd(nine, c));
  t = _mm256_sub_pd(t, d);
  return _mm256_div_pd(t, _mm256_set1_pd(16.0));
}

__m256d pred4(const Plane& p, std::size_t i) {
  const auto base = static_cast<double>(i);
  const __m256d di = _mm256_sub_pd(
      _mm256_setr_pd(base, base + 1.0, base + 2.0, base + 3.0), _mm256_set1_pd(p.ci));
  const __m256d t =
      _mm256_add_pd(_mm256_set1_pd(p.m), _mm256_mul_pd(_mm256_set1_pd(p.gx), di));
  return _mm256_add_pd(_mm256_add_pd(t, _mm256_set1_pd(p.aj)), _mm256_set1_pd(p.ak));
}

/// std::llround in the double domain: round-to-even via the magic constant,
/// then push exact .5 ties away from zero. Valid for |x| < 2^51; lanes
/// outside (which always fail the quantizer's range check) produce garbage
/// that the caller masks off.
__m256d round_llround(__m256d x, const QV& qv) {
  __m256d r = _mm256_sub_pd(_mm256_add_pd(x, qv.magic), qv.magic);
  const __m256d d = _mm256_sub_pd(x, r);  // exact: |d| <= 0.5
  const __m256d up = _mm256_and_pd(_mm256_cmp_pd(d, qv.half, _CMP_EQ_OQ),
                                   _mm256_cmp_pd(qv.zero, x, _CMP_LT_OQ));
  r = _mm256_add_pd(r, _mm256_and_pd(up, qv.one));
  const __m256d down = _mm256_and_pd(_mm256_cmp_pd(d, qv.neg_half, _CMP_EQ_OQ),
                                     _mm256_cmp_pd(x, qv.zero, _CMP_LT_OQ));
  return _mm256_sub_pd(r, _mm256_and_pd(down, qv.one));
}

/// Narrows a 64-bit lane mask to the matching 32-bit float-lane mask.
__m128 mask_ps(__m256d m) {
  const __m128 lo = _mm_castpd_ps(_mm256_castpd256_pd128(m));
  const __m128 hi = _mm_castpd_ps(_mm256_extractf128_pd(m, 1));
  return _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
}

/// Quantizes 4 lanes against `pred`, storing codes+recon; returns the
/// outlier lane mask (bit b set => lane b escaped).
int quant4(__m128 forig, __m256d pred, const QV& qv, std::uint32_t* codes, float* recon) {
  const __m256d xd = _mm256_cvtps_pd(forig);
  const __m256d diff = _mm256_sub_pd(xd, pred);
  const __m256d ok1 =
      _mm256_cmp_pd(_mm256_andnot_pd(qv.sign, diff), qv.range, _CMP_LT_OQ);
  const __m256d q = round_llround(_mm256_div_pd(diff, qv.two_eb), qv);
  const __m256d ok2 =
      _mm256_cmp_pd(_mm256_andnot_pd(qv.sign, q), qv.radius_d, _CMP_LT_OQ);
  const __m128 candf =
      _mm256_cvtpd_ps(_mm256_add_pd(pred, _mm256_mul_pd(qv.two_eb, q)));
  const __m256d err = _mm256_sub_pd(_mm256_cvtps_pd(candf), xd);
  const __m256d ok3 = _mm256_cmp_pd(_mm256_andnot_pd(qv.sign, err), qv.eb, _CMP_LE_OQ);
  const __m128 mf = mask_ps(_mm256_and_pd(ok1, _mm256_and_pd(ok2, ok3)));
  const __m128i code = _mm_and_si128(_mm256_cvttpd_epi32(_mm256_add_pd(q, qv.radius_d)),
                                     _mm_castps_si128(mf));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes), code);
  _mm_storeu_ps(recon, _mm_or_ps(_mm_and_ps(mf, candf), _mm_andnot_ps(mf, forig)));
  return _mm_movemask_ps(mf) ^ 0xf;
}

void push_bad(const float* orig, int bad, AlignedVec<float>& outliers) {
  while (bad != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(bad));
    outliers.push_back(orig[b]);
    bad &= bad - 1;
  }
}

/// Dequantizes 4 lanes; outlier (code 0) lanes hold garbage for the caller
/// to patch. Returns the outlier lane mask.
int dequant4(const std::uint32_t* codes, __m256d pred, const QV& qv, float* recon) {
  const __m128i ci = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes));
  const int zmask =
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(ci, _mm_setzero_si128())));
  const __m256d qd = _mm256_sub_pd(_mm256_cvtepi32_pd(ci), qv.radius_d);
  const __m256d rec = _mm256_add_pd(pred, _mm256_mul_pd(qv.two_eb, qd));
  _mm_storeu_ps(recon, _mm256_cvtpd_ps(rec));
  return zmask;
}

void patch_outliers(float* recon, int zmask, std::span<const float> outliers,
                    std::size_t& pos) {
  while (zmask != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(zmask));
    if (pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
    recon[b] = outliers[pos++];
    zmask &= zmask - 1;
  }
}

/// Quantizes the row's whole 4-lane steps; returns where the tail starts.
/// Both bodies copy the predictor into a local first: the vector stores may
/// alias any object, so read through `pred` its terms would be loaded and
/// broadcast again on every step.
template <typename Pred>
std::size_t avx2_quantize(const Pred& pred, const float* orig, std::size_t n, double eb,
                          std::uint32_t radius, std::uint32_t* codes, float* recon,
                          AlignedVec<float>& outliers) {
  const QV qv(eb, radius);
  const Pred p = pred;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int bad =
        quant4(_mm_loadu_ps(orig + i), pred4(p, i), qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  return i;
}

/// Dequantizes the row's whole 4-lane steps; returns where the tail starts.
template <typename Pred>
std::size_t avx2_dequantize(const Pred& pred, const std::uint32_t* codes, std::size_t n,
                            double eb, std::uint32_t radius, float* recon,
                            std::span<const float> outliers, std::size_t& pos) {
  const QV qv(eb, radius);
  const Pred p = pred;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int z = dequant4(codes + i, pred4(p, i), qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  return i;
}

#pragma GCC pop_options
#endif  // MRC_SIMD_X86

bool cpu_has_avx2() {
#ifdef MRC_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<Isa>& dispatched() {
  static std::atomic<Isa> isa{best_isa()};
  return isa;
}

/// The AVX2 body over the row's 4-lane steps where the CPU and the radius
/// allow it, then the scalar row over what is left.
template <typename Pred>
void quantize_row(const Pred& pred, const float* orig, std::size_t n, double eb,
                  std::uint32_t radius, std::uint32_t* codes, float* recon,
                  AlignedVec<float>& outliers) {
  std::size_t i = 0;
#ifdef MRC_SIMD_X86
  if (active_isa() == Isa::avx2 && vectorizable(radius, n))
    i = avx2_quantize(pred, orig, n, eb, radius, codes, recon, outliers);
#endif
  const LinearQuantizer quant{eb, radius};
  for (; i < n; ++i) codes[i] = quant.encode(orig[i], pred(i), recon[i], outliers);
}

template <typename Pred>
void dequantize_row(const Pred& pred, const std::uint32_t* codes, std::size_t n, double eb,
                    std::uint32_t radius, float* recon, std::span<const float> outliers,
                    std::size_t& pos) {
  std::size_t i = 0;
#ifdef MRC_SIMD_X86
  if (active_isa() == Isa::avx2 && vectorizable(radius, n))
    i = avx2_dequantize(pred, codes, n, eb, radius, recon, outliers, pos);
#endif
  const LinearQuantizer quant{eb, radius};
  for (; i < n; ++i) recon[i] = quant.decode(codes[i], pred(i), outliers, pos);
}

}  // namespace

Isa best_isa() {
  static const Isa best = cpu_has_avx2() ? Isa::avx2 : Isa::scalar;
  return best;
}

Isa active_isa() { return dispatched().load(std::memory_order_relaxed); }

Isa force_isa(Isa isa) {
  const Isa applied = std::min(isa, best_isa());
  dispatched().store(applied, std::memory_order_relaxed);
  return applied;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::avx2: return "avx2";
  }
  return "?";
}

void quantize_row_linear(const float* orig, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius,
                         std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  quantize_row(Linear{lo, hi}, orig, n, eb, radius, codes, recon, outliers);
}
void quantize_row_cubic(const float* orig, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers) {
  quantize_row(Cubic{a, b, c, d}, orig, n, eb, radius, codes, recon, outliers);
}
void quantize_row_plane(const float* orig, std::size_t n, double m, double gx, double ci,
                        double aj, double ak, double eb, std::uint32_t radius,
                        std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  quantize_row(Plane{m, gx, ci, aj, ak}, orig, n, eb, radius, codes, recon, outliers);
}
void dequantize_row_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                           std::size_t n, double eb, std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& outlier_pos) {
  dequantize_row(Linear{lo, hi}, codes, n, eb, radius, recon, outliers, outlier_pos);
}
void dequantize_row_cubic(const std::uint32_t* codes, const float* a, const float* b,
                          const float* c, const float* d, std::size_t n, double eb,
                          std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& outlier_pos) {
  dequantize_row(Cubic{a, b, c, d}, codes, n, eb, radius, recon, outliers, outlier_pos);
}
void dequantize_row_plane(const std::uint32_t* codes, std::size_t n, double m, double gx,
                          double ci, double aj, double ak, double eb, std::uint32_t radius,
                          float* recon, std::span<const float> outliers,
                          std::size_t& outlier_pos) {
  dequantize_row(Plane{m, gx, ci, aj, ak}, codes, n, eb, radius, recon, outliers,
                 outlier_pos);
}

}  // namespace mrc::simd
