#include "compressors/simd_kernels.h"

#include <atomic>

#include "compressors/simd_kernels_scalar.h"

namespace mrc::simd {

namespace {

using namespace detail;

void sc_quantize_linear(const float* orig, const float* lo, const float* hi,
                        std::size_t n, double eb, std::uint32_t radius,
                        std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
}
void sc_quantize_cubic(const float* orig, const float* a, const float* b,
                       const float* c, const float* d, std::size_t n, double eb,
                       std::uint32_t radius, std::uint32_t* codes, float* recon,
                       AlignedVec<float>& outliers) {
  s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
}
void sc_quantize_plane(const float* orig, std::size_t n, double m, double gx,
                       double ci, double aj, double ak, double eb,
                       std::uint32_t radius, std::uint32_t* codes, float* recon,
                       AlignedVec<float>& outliers) {
  s_quantize_plane(orig, n, m, gx, ci, aj, ak, eb, radius, codes, recon, outliers);
}
void sc_dequantize_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                          std::size_t n, double eb, std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos);
}
void sc_dequantize_cubic(const std::uint32_t* codes, const float* a, const float* b,
                         const float* c, const float* d, std::size_t n, double eb,
                         std::uint32_t radius, float* recon,
                         std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos);
}
void sc_dequantize_plane(const std::uint32_t* codes, std::size_t n, double m, double gx,
                         double ci, double aj, double ak, double eb, std::uint32_t radius,
                         float* recon, std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_plane(codes, n, m, gx, ci, aj, ak, eb, radius, recon, outliers, pos);
}

constexpr KernelTable kScalarTable = {
    sc_quantize_linear,   sc_quantize_cubic,   sc_quantize_plane,
    sc_dequantize_linear, sc_dequantize_cubic, sc_dequantize_plane,
};

const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::avx2:
      if (const KernelTable* t = avx2_table()) return t;
      [[fallthrough]];
    case Isa::sse2:
      if (const KernelTable* t = sse2_table()) return t;
      [[fallthrough]];
    case Isa::scalar:
      break;
  }
  return &kScalarTable;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa detect_best() {
  if (avx2_table() != nullptr && cpu_has_avx2()) return Isa::avx2;
  if (sse2_table() != nullptr) return Isa::sse2;
  return Isa::scalar;
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<Isa> isa;
  Dispatch() : table(table_for(detect_best())), isa(detect_best()) {}
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const KernelTable* active() { return dispatch().table.load(std::memory_order_relaxed); }

}  // namespace

Isa best_isa() {
  static const Isa best = detect_best();
  return best;
}

Isa active_isa() { return dispatch().isa.load(std::memory_order_relaxed); }

Isa force_isa(Isa isa) {
  Isa applied = isa <= best_isa() ? isa : best_isa();
  if (applied == Isa::avx2 && avx2_table() == nullptr) applied = Isa::sse2;
  if (applied == Isa::sse2 && sse2_table() == nullptr) applied = Isa::scalar;
  dispatch().table.store(table_for(applied), std::memory_order_relaxed);
  dispatch().isa.store(applied, std::memory_order_relaxed);
  return applied;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::sse2: return "sse2";
    case Isa::avx2: return "avx2";
  }
  return "?";
}

void quantize_row_linear(const float* orig, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius,
                         std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  active()->quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
}
void quantize_row_cubic(const float* orig, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers) {
  active()->quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
}
void quantize_row_plane(const float* orig, std::size_t n, double m, double gx, double ci,
                        double aj, double ak, double eb, std::uint32_t radius,
                        std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  active()->quantize_plane(orig, n, m, gx, ci, aj, ak, eb, radius, codes, recon,
                           outliers);
}
void dequantize_row_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                           std::size_t n, double eb, std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& outlier_pos) {
  active()->dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, outlier_pos);
}
void dequantize_row_cubic(const std::uint32_t* codes, const float* a, const float* b,
                          const float* c, const float* d, std::size_t n, double eb,
                          std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& outlier_pos) {
  active()->dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers,
                             outlier_pos);
}
void dequantize_row_plane(const std::uint32_t* codes, std::size_t n, double m, double gx,
                          double ci, double aj, double ak, double eb, std::uint32_t radius,
                          float* recon, std::span<const float> outliers,
                          std::size_t& outlier_pos) {
  active()->dequantize_plane(codes, n, m, gx, ci, aj, ak, eb, radius, recon, outliers,
                             outlier_pos);
}

}  // namespace mrc::simd
