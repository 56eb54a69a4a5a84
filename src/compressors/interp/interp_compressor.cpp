#include "compressors/interp/interp_compressor.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "compressors/simd_kernels.h"
#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {


int ceil_log2(index_t n) {
  int l = 0;
  while ((index_t{1} << l) < n) ++l;
  return l;
}

/// Prediction along one axis of the reconstruction buffer.
/// `line` points at element 0 of the line, `ms` is the memory stride between
/// consecutive elements along the axis. Returns the prediction and whether
/// constant extrapolation was forced (right neighbor outside the grid).
struct Prediction {
  double value;
  bool extrapolated;
};

Prediction predict(const float* line, index_t ms, index_t i, index_t n, index_t s,
                   bool cubic) {
  if (i + s > n - 1) return {static_cast<double>(line[(i - s) * ms]), true};
  if (cubic && i - 3 * s >= 0 && i + 3 * s <= n - 1) {
    const double a = line[(i - 3 * s) * ms];
    const double b = line[(i - s) * ms];
    const double c = line[(i + s) * ms];
    const double d = line[(i + 3 * s) * ms];
    return {(-a + 9.0 * b + 9.0 * c - d) / 16.0, false};
  }
  return {0.5 * (line[(i - s) * ms] + line[(i + s) * ms]), false};
}

/// Indices known *before* the current level's sweep along an axis
/// (multiples of 2s) plus the per-line anchor at n-1.
std::vector<index_t> coarse_set(index_t n, index_t s) {
  std::vector<index_t> v;
  for (index_t i = 0; i < n; i += 2 * s) v.push_back(i);
  if (n > 1 && (n - 1) % (2 * s) != 0) v.push_back(n - 1);
  return v;
}

/// Indices known after this level's sweep along an axis (multiples of s)
/// plus the anchor.
std::vector<index_t> fine_set(index_t n, index_t s) {
  std::vector<index_t> v;
  for (index_t i = 0; i < n; i += s) v.push_back(i);
  if (n > 1 && (n - 1) % s != 0) v.push_back(n - 1);
  return v;
}

/// Targets of this level's sweep along an axis: i ≡ s (mod 2s), excluding the
/// anchor at n-1 which is coded up front.
std::vector<index_t> target_set(index_t n, index_t s) {
  std::vector<index_t> v;
  for (index_t i = s; i < n - 1; i += 2 * s) v.push_back(i);
  return v;
}

/// Anchor corners: every coordinate is 0 or n-1, deduplicated, ordered so a
/// corner's parent (last nonzero coordinate zeroed) always precedes it.
struct Corner {
  index_t x, y, z;
};

std::vector<Corner> corner_list(Dim3 d) {
  std::vector<Corner> corners;
  auto ends = [](index_t n) {
    return n > 1 ? std::vector<index_t>{0, n - 1} : std::vector<index_t>{0};
  };
  for (index_t z : ends(d.nz))
    for (index_t y : ends(d.ny))
      for (index_t x : ends(d.nx)) corners.push_back({x, y, z});
  return corners;  // z-major loop order already places parents first
}

double corner_prediction(const FieldF& recon, const Corner& c) {
  if (c.z != 0) return recon.at(c.x, c.y, 0);
  if (c.y != 0) return recon.at(c.x, 0, 0);
  if (c.x != 0) return recon.at(0, 0, 0);
  return 0.0;
}

/// A contiguous run of targets whose prediction is row-uniform: in the s==1
/// y-sweep every x makes one row per (y, z) with sources at y±1 (and y±3 for
/// cubic); in the s==1 z-sweep the whole fully-fine x-y slab of a target z
/// is one run with slab sources at z±1 / z±3. Targets always have a right
/// neighbour at s==1 (target_set stops at n-2), so constant extrapolation
/// never appears in these runs — the kinds are exactly linear and cubic.
/// traverse() hands these to its row handler (the SIMD kernel hook);
/// everything else (corners, x-sweep, s>1 levels) stays per-point.
enum class RowKind : std::uint8_t { linear, cubic };

struct RowCtx {
  index_t row = 0;  ///< linear index of the first element
  index_t n = 0;    ///< contiguous element count
  int lev = 1;
  RowKind kind = RowKind::linear;
  index_t a = 0, b = 0, c = 0, d = 0;  ///< source-run starts: b/c = ∓s, a/d = ∓3s
};

/// Visits every grid point exactly once in the fixed compressor order.
/// handler(linear_index, prediction, level, extrapolated) where level = 1 is
/// the finest stride and corners report the coarsest level; row-uniform runs
/// go to rows(RowCtx) instead (same traversal positions, same order).
template <typename Handler, typename RowHandler>
void traverse(const Dim3& d, FieldF& recon, bool cubic, Handler&& handler,
              RowHandler&& rows) {
  const int levels = std::max(ceil_log2(d.max_extent()), 1);

  for (const Corner& c : corner_list(d)) {
    const double pred = corner_prediction(recon, c);
    handler(d.index(c.x, c.y, c.z), pred, levels, false);
  }

  float* base = recon.data();
  const index_t sx = 1, sy = d.nx, sz = d.nx * d.ny;

  for (int lev = levels; lev >= 1; --lev) {
    const index_t s = index_t{1} << (lev - 1);

    // Sweep along x: y and z on the coarse grid.
    {
      const auto tx = target_set(d.nx, s);
      if (!tx.empty()) {
        const auto cy = coarse_set(d.ny, s);
        const auto cz = coarse_set(d.nz, s);
        for (index_t z : cz)
          for (index_t y : cy) {
            const float* line = base + d.index(0, y, z);
            for (index_t x : tx) {
              const auto p = predict(line, sx, x, d.nx, s, cubic);
              handler(d.index(x, y, z), p.value, lev, p.extrapolated);
            }
          }
      }
    }
    // Sweep along y: x already refined this level, z still coarse.
    {
      const auto ty = target_set(d.ny, s);
      if (!ty.empty()) {
        const auto cz = coarse_set(d.nz, s);
        if (s == 1) {
          // fine_set(nx, 1) is every x in order: one contiguous row per (y, z).
          for (index_t z : cz)
            for (index_t y : ty) {
              RowCtx rc;
              rc.row = d.index(0, y, z);
              rc.n = d.nx;
              rc.lev = lev;
              rc.b = d.index(0, y - 1, z);
              rc.c = d.index(0, y + 1, z);
              if (cubic && y - 3 >= 0 && y + 3 <= d.ny - 1) {
                rc.kind = RowKind::cubic;
                rc.a = d.index(0, y - 3, z);
                rc.d = d.index(0, y + 3, z);
              }
              rows(rc);
            }
        } else {
          const auto fx = fine_set(d.nx, s);
          for (index_t z : cz)
            for (index_t y : ty)
              for (index_t x : fx) {
                const float* line = base + d.index(x, 0, z);
                const auto p = predict(line, sy, y, d.ny, s, cubic);
                handler(d.index(x, y, z), p.value, lev, p.extrapolated);
              }
        }
      }
    }
    // Sweep along z: x and y refined this level.
    {
      const auto tz = target_set(d.nz, s);
      if (!tz.empty()) {
        if (s == 1) {
          // Both in-slab axes fully fine: each target z is one contiguous
          // nx*ny run predicted from the z∓1 (and z∓3) slabs.
          for (index_t z : tz) {
            RowCtx rc;
            rc.row = d.index(0, 0, z);
            rc.n = d.nx * d.ny;
            rc.lev = lev;
            rc.b = d.index(0, 0, z - 1);
            rc.c = d.index(0, 0, z + 1);
            if (cubic && z - 3 >= 0 && z + 3 <= d.nz - 1) {
              rc.kind = RowKind::cubic;
              rc.a = d.index(0, 0, z - 3);
              rc.d = d.index(0, 0, z + 3);
            }
            rows(rc);
          }
        } else {
          const auto fx = fine_set(d.nx, s);
          const auto fy = fine_set(d.ny, s);
          for (index_t z : tz)
            for (index_t y : fy)
              for (index_t x : fx) {
                const float* line = base + d.index(x, y, 0);
                const auto p = predict(line, sz, z, d.nz, s, cubic);
                handler(d.index(x, y, z), p.value, lev, p.extrapolated);
              }
        }
      }
    }
  }
}

/// Per-point traverse: row-uniform runs are replayed element-wise through
/// `handler` with exactly the predictions predict() would produce.
template <typename Handler>
void traverse(const Dim3& d, FieldF& recon, bool cubic, Handler&& handler) {
  const float* base = recon.data();
  traverse(d, recon, cubic, handler, [&](const RowCtx& rc) {
    const float* b = base + rc.b;
    const float* c = base + rc.c;
    if (rc.kind == RowKind::cubic) {
      const float* a = base + rc.a;
      const float* dd = base + rc.d;
      for (index_t i = 0; i < rc.n; ++i) {
        const double pred = (-static_cast<double>(a[i]) + 9.0 * b[i] + 9.0 * c[i] -
                             static_cast<double>(dd[i])) /
                            16.0;
        handler(rc.row + i, pred, rc.lev, false);
      }
    } else {
      for (index_t i = 0; i < rc.n; ++i)
        handler(rc.row + i, 0.5 * (b[i] + c[i]), rc.lev, false);
    }
  });
}

/// Per-level error bound (QoZ-style; level 1 = finest keeps the full bound).
double level_eb(double eb, int level, const InterpConfig& cfg) {
  if (!cfg.adaptive_eb || level <= 1) return eb;
  const double factor = std::min(std::pow(cfg.alpha, level - 1), cfg.beta);
  return eb / factor;
}

// The two traverse passes live in their own non-inlined functions, free of
// any obs:: code, so the OBS_SPANs at their call sites cannot perturb the
// hot loop's codegen (see the placement rule next to OBS_SPAN in obs/obs.h).

MRC_OBS_NOINLINE std::size_t predict_quant_pass(const FieldF& f, double abs_eb,
                                                const InterpConfig& cfg,
                                                FieldF& recon,
                                                AlignedVec<std::uint32_t>& codes,
                                                AlignedVec<float>& outliers) {
  const auto radius = cfg.quant_radius;
  const float* orig = f.data();
  float* rec = recon.data();
  std::size_t emitted = 0;
  traverse(
      f.dims(), recon, cfg.cubic,
      [&](index_t idx, double pred, int level, bool /*extrap*/) {
        const double eb = level_eb(abs_eb, level, cfg);
        const float x = orig[idx];
        const double diff = static_cast<double>(x) - pred;
        std::uint32_t code = 0;
        if (std::abs(diff) < 2.0 * eb * radius) {
          const auto q = std::llround(diff / (2.0 * eb));
          if (std::llabs(q) < radius) {
            const auto cand =
                static_cast<float>(pred + 2.0 * eb * static_cast<double>(q));
            if (std::abs(static_cast<double>(cand) - static_cast<double>(x)) <= eb) {
              code = static_cast<std::uint32_t>(q + radius);
              rec[idx] = cand;
            }
          }
        }
        if (code == 0) {
          outliers.push_back(x);
          rec[idx] = x;
        }
        codes[emitted++] = code;
      },
      [&](const RowCtx& rc) {
        const double eb = level_eb(abs_eb, rc.lev, cfg);
        const auto n = static_cast<std::size_t>(rc.n);
        const float* op = orig + rc.row;
        std::uint32_t* cp = codes.data() + emitted;
        float* rp = rec + rc.row;
        if (rc.kind == RowKind::cubic)
          simd::quantize_row_cubic(op, rec + rc.a, rec + rc.b, rec + rc.c, rec + rc.d,
                                   n, eb, radius, cp, rp, outliers);
        else
          simd::quantize_row_linear(op, rec + rc.b, rec + rc.c, n, eb, radius, cp, rp,
                                    outliers);
        emitted += n;
      });
  return emitted;
}

MRC_OBS_NOINLINE void predict_recon_pass(const Dim3& dims, double stream_eb,
                                         const InterpConfig& cfg, FieldF& recon,
                                         const AlignedVec<std::uint32_t>& codes,
                                         const AlignedVec<float>& outliers) {
  std::size_t ci = 0;
  std::size_t oi = 0;
  const auto radius = cfg.quant_radius;
  float* rec = recon.data();
  const std::span<const float> ospan(outliers.data(), outliers.size());
  traverse(
      dims, recon, cfg.cubic,
      [&](index_t idx, double pred, int level, bool /*extrap*/) {
        const double eb = level_eb(stream_eb, level, cfg);
        const std::uint32_t code = codes[ci++];
        if (code == 0) {
          if (oi >= outliers.size()) throw CodecError("interp: outlier underrun");
          rec[idx] = outliers[oi++];
        } else {
          const auto q = static_cast<std::int64_t>(code) - radius;
          rec[idx] = static_cast<float>(pred + 2.0 * eb * static_cast<double>(q));
        }
      },
      [&](const RowCtx& rc) {
        const double eb = level_eb(stream_eb, rc.lev, cfg);
        const auto n = static_cast<std::size_t>(rc.n);
        const std::uint32_t* cp = codes.data() + ci;
        float* rp = rec + rc.row;
        if (rc.kind == RowKind::cubic)
          simd::dequantize_row_cubic(cp, rec + rc.a, rec + rc.b, rec + rc.c,
                                     rec + rc.d, n, eb, radius, rp, ospan, oi);
        else
          simd::dequantize_row_linear(cp, rec + rc.b, rec + rc.c, n, eb, radius, rp,
                                      ospan, oi);
        ci += n;
      });
  if (oi != outliers.size()) throw CodecError("interp: outlier overrun");
}

}  // namespace

InterpCompressor::InterpCompressor(InterpConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.quant_radius >= 2, "quant radius too small");
  MRC_REQUIRE(cfg_.alpha > 1.0 && cfg_.beta >= 1.0, "bad adaptive-eb parameters");
}

std::string InterpCompressor::name() const {
  return cfg_.adaptive_eb ? "interp(adaptive-eb)" : "interp";
}

Bytes InterpCompressor::compress(const FieldF& f, double abs_eb) const {
  // The bound feeds the quantizer (and zfpx's exponent cast) before the
  // header's own check runs, so a non-finite one must stop here.
  MRC_REQUIRE(abs_eb > 0.0 && std::isfinite(abs_eb),
              "error bound must be finite and > 0");
  MRC_REQUIRE(!f.empty(), "empty field");
  const Dim3 d = f.dims();
  const auto radius = cfg_.quant_radius;

  FieldF recon(d);
  // Per-lane scratch: tiled/pyramid/adaptive containers run one compress per
  // brick on an exec-pool lane, so these buffers are reused across bricks
  // instead of reallocated for each one. 64-byte aligned so the SIMD row
  // kernels' stores start on cache-line boundaries.
  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  codes.resize(static_cast<std::size_t>(d.size()));
  outliers.clear();
  std::size_t emitted = 0;

  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.encode_ns");
  static obs::Counter& ns_ent =
      obs::Registry::global().counter("mrc.codec.entropy.encode_ns");
  static obs::Counter& ns_ll =
      obs::Registry::global().counter("mrc.codec.lossless.encode_ns");

  {
    OBS_SPAN("interp.predict_quant", &ns_pq);
    emitted = predict_quant_pass(f, abs_eb, cfg_, recon, codes, outliers);
  }
  MRC_REQUIRE(emitted == codes.size(), "traversal did not cover the grid");

  // The negotiated shard count (not the raw request) goes into the header,
  // so the container version and the entropy stream's actual layout agree;
  // 1 keeps the frozen v6 header and monolithic stream byte-for-byte.
  const std::uint32_t shards = lossless::negotiate_entropy_shards(
      static_cast<std::uint64_t>(d.size()), cfg_.entropy_shards);
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kMagic, d, abs_eb, shards);
  w.put(static_cast<std::uint8_t>(cfg_.adaptive_eb ? 1 : 0));
  w.put(static_cast<std::uint8_t>(cfg_.cubic ? 1 : 0));
  w.put(cfg_.alpha);
  w.put(cfg_.beta);
  w.put_varint(radius);

  {
    OBS_SPAN("interp.entropy", &ns_ent);
    w.put_blob(lossless::encode_quant_codes_sharded(codes, radius, shards));
  }
  {
    OBS_SPAN("interp.lossless", &ns_ll);
    const auto outlier_bytes = std::as_bytes(std::span<const float>(outliers));
    w.put_blob(lossless::lzss_compress(outlier_bytes));
  }
  return out;
}

FieldF InterpCompressor::decompress(std::span<const std::byte> stream) const {
  ByteReader r(stream);
  const auto h = detail::read_header(r, kMagic, "interp");

  InterpConfig cfg;
  cfg.adaptive_eb = r.get<std::uint8_t>() != 0;
  cfg.cubic = r.get<std::uint8_t>() != 0;
  cfg.alpha = r.get<double>();
  cfg.beta = r.get<double>();
  cfg.quant_radius = static_cast<std::uint32_t>(r.get_varint());

  // Per-lane scratch (see compress); decode_quant_codes_into validates the
  // stream's count against the header dims before sizing the buffer, then
  // writes straight into it.
  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  static obs::Counter& ns_ent =
      obs::Registry::global().counter("mrc.codec.entropy.decode_ns");
  static obs::Counter& ns_ll =
      obs::Registry::global().counter("mrc.codec.lossless.decode_ns");
  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.decode_ns");
  {
    OBS_SPAN("interp.entropy", &ns_ent);
    lossless::decode_quant_codes_into(r.get_blob(), cfg.quant_radius, codes,
                                      static_cast<std::uint64_t>(h.dims.size()));
  }
  {
    OBS_SPAN("interp.lossless", &ns_ll);
    const auto outlier_raw = lossless::lzss_decompress(r.get_blob());
    if (outlier_raw.size() % sizeof(float) != 0)
      throw CodecError("interp: bad outlier blob");
    outliers.resize(outlier_raw.size() / sizeof(float));
    if (!outlier_raw.empty())  // memcpy from an empty vector's null data() is UB
      std::memcpy(outliers.data(), outlier_raw.data(), outlier_raw.size());
  }

  FieldF recon(h.dims);
  OBS_SPAN("interp.predict_recon", &ns_pq);
  predict_recon_pass(h.dims, h.eb, cfg, recon, codes, outliers);
  return recon;
}

index_t InterpCompressor::count_extrapolated_points(Dim3 dims) {
  FieldF scratch(dims, 0.0f);
  index_t count = 0;
  traverse(dims, scratch, /*cubic=*/true,
           [&](index_t, double, int, bool extrap) { count += extrap ? 1 : 0; });
  return count;
}

}  // namespace mrc
