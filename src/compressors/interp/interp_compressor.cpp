#include "compressors/interp/interp_compressor.h"

#include <algorithm>
#include <cmath>

#include "compressors/quantizer.h"
#include "compressors/simd_kernels.h"
#include "exec/thread_pool.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {

constexpr detail::PayloadNames kPayloadNames{"interp", "interp.entropy",
                                             "interp.lossless"};

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
/// visit_units() hands these to its row handler (the SIMD kernel hook);
/// everything else (corners, x-sweep, s>1 levels) stays per-point.
enum class RowKind : std::uint8_t { linear, cubic };

struct RowCtx {
  index_t row = 0;  ///< linear index of the first element
  index_t n = 0;    ///< contiguous element count
  RowKind kind = RowKind::linear;
  index_t a = 0, b = 0, c = 0, d = 0;  ///< source-run starts: b/c = ∓s, a/d = ∓3s
};

/// One sweep of the traversal: every target of one level along one axis, in
/// code order. Its targets fall into `units()` units of `per_unit` targets
/// each — unit (outer[u / |inner|], inner[u % |inner|]) is a (z, y) pair
/// naming a line along x (x-sweep), a line or row along x (y-sweep) or a
/// line along x of one z target (z-sweep at s > 1); at s == 1 the z-sweep's
/// unit is a whole z-slab. So a chunk of units knows its first code index
/// before it runs, and no target reads another target of its own sweep.
struct Sweep {
  int lev = 1;   ///< 1 = finest stride
  int axis = 0;  ///< 0 = x, 1 = y, 2 = z
  index_t s = 1;
  bool rows = false;            ///< s == 1 y/z sweep: units are RowCtx runs
  std::vector<index_t> outer;   ///< z of each unit group
  std::vector<index_t> inner;   ///< y within a group
  std::vector<index_t> along;   ///< x of each point in a unit (per-point sweeps)
  index_t per_unit = 0;

  [[nodiscard]] index_t units() const {
    return static_cast<index_t>(outer.size() * inner.size());
  }
  [[nodiscard]] index_t targets() const { return units() * per_unit; }
};

/// Every sweep of the fixed compressor order: levels from the coarsest
/// stride down, x then y then z within a level. The corners come first and
/// are not part of any sweep.
std::vector<Sweep> sweep_plan(const Dim3& d) {
  const int levels = std::max(ceil_log2(d.max_extent()), 1);
  std::vector<Sweep> plan;
  for (int lev = levels; lev >= 1; --lev) {
    const index_t s = index_t{1} << (lev - 1);
    Sweep sw;
    sw.lev = lev;
    sw.s = s;
    // Along x: y and z on the coarse grid.
    if (auto tx = target_set(d.nx, s); !tx.empty()) {
      Sweep x = sw;
      x.axis = 0;
      x.outer = coarse_set(d.nz, s);
      x.inner = coarse_set(d.ny, s);
      x.per_unit = static_cast<index_t>(tx.size());
      x.along = std::move(tx);
      plan.push_back(std::move(x));
    }
    // Along y: x already refined this level, z still coarse. At s == 1
    // fine_set(nx, 1) is every x in order: one contiguous row per (y, z).
    if (auto ty = target_set(d.ny, s); !ty.empty()) {
      Sweep y = sw;
      y.axis = 1;
      y.outer = coarse_set(d.nz, s);
      y.inner = std::move(ty);
      y.rows = s == 1;
      if (!y.rows) y.along = fine_set(d.nx, s);
      y.per_unit = y.rows ? d.nx : static_cast<index_t>(y.along.size());
      plan.push_back(std::move(y));
    }
    // Along z: x and y refined this level. At s == 1 both in-slab axes are
    // fully fine, so each target z is one contiguous nx*ny run.
    if (auto tz = target_set(d.nz, s); !tz.empty()) {
      Sweep z = sw;
      z.axis = 2;
      z.outer = std::move(tz);
      z.rows = s == 1;
      z.inner = z.rows ? std::vector<index_t>{0} : fine_set(d.ny, s);
      if (!z.rows) z.along = fine_set(d.nx, s);
      z.per_unit = z.rows ? d.nx * d.ny : static_cast<index_t>(z.along.size());
      plan.push_back(std::move(z));
    }
  }
  return plan;
}

/// Visits the targets of units [u0, u1) of `sw` in code order:
/// point(linear_index, prediction, extrapolated) per point, rows(RowCtx)
/// per row-uniform run.
template <typename Point, typename Rows>
void visit_units(const Dim3& d, const float* base, bool cubic, const Sweep& sw,
                 index_t u0, index_t u1, Point&& point, Rows&& rows) {
  const auto n_inner = static_cast<index_t>(sw.inner.size());
  const index_t s = sw.s;
  for (index_t u = u0; u < u1; ++u) {
    const index_t z = sw.outer[static_cast<std::size_t>(u / n_inner)];
    const index_t y = sw.inner[static_cast<std::size_t>(u % n_inner)];
    if (sw.rows) {
      // y-sweep: one x-row at (y, z), sources at y∓1 (∓3); z-sweep: the
      // whole slab z, sources at the z∓1 (∓3) slabs.
      const bool along_y = sw.axis == 1;
      const index_t pos = along_y ? y : z;
      const index_t n = along_y ? d.ny : d.nz;
      auto at = [&](index_t k) { return along_y ? d.index(0, k, z) : d.index(0, 0, k); };
      RowCtx rc;
      rc.row = at(pos);
      rc.n = sw.per_unit;
      rc.b = at(pos - 1);
      rc.c = at(pos + 1);
      if (cubic && pos - 3 >= 0 && pos + 3 <= n - 1) {
        rc.kind = RowKind::cubic;
        rc.a = at(pos - 3);
        rc.d = at(pos + 3);
      }
      rows(rc);
      continue;
    }
    for (const index_t x : sw.along) {
      Prediction p{};
      switch (sw.axis) {
        case 0: p = predict(base + d.index(0, y, z), 1, x, d.nx, s, cubic); break;
        case 1: p = predict(base + d.index(x, 0, z), d.nx, y, d.ny, s, cubic); break;
        default: p = predict(base + d.index(x, y, 0), d.nx * d.ny, z, d.nz, s, cubic);
      }
      point(d.index(x, y, z), p.value, p.extrapolated);
    }
  }
}

/// Targets below which a sweep runs inline as one chunk: the pool round
/// trip and the per-chunk outlier bookkeeping would cost more than it buys.
/// On a mini-Nyx snapshot's 9x9x2048 level-1 merge at 4 lanes (4 vCPUs),
/// compress took 1.1-1.7 ms with 4 Ki, 1.3-2.2 ms with 16 Ki and 1.8-2.8 ms
/// with 64 Ki, and decode did not tell them apart.
constexpr index_t kMinChunkTargets = index_t{16} << 10;
/// Chunks per lane of a split sweep, so lanes balance outlier-heavy chunks.
constexpr index_t kChunksPerLane = 4;

/// Chunks a sweep runs as on `lanes` lanes; 1 = inline on the caller.
index_t chunk_count(const Sweep& sw, int lanes) {
  if (lanes <= 1 || sw.targets() < kMinChunkTargets) return 1;
  return std::min<index_t>(sw.units(), kChunksPerLane * lanes);
}

/// First unit of chunk c of `chunks` (chunk_begin(chunks) = units()).
index_t chunk_begin(const Sweep& sw, index_t chunks, index_t c) {
  return sw.units() * c / chunks;
}

/// Per-level error bound (QoZ-style; level 1 = finest keeps the full bound).
double level_eb(double eb, int level, const InterpConfig& cfg) {
  if (!cfg.adaptive_eb || level <= 1) return eb;
  const double factor = std::min(std::pow(cfg.alpha, level - 1), cfg.beta);
  return eb / factor;
}

// The two passes live in their own non-inlined functions, free of any obs::
// code, so the OBS_SPANs at their call sites cannot perturb the hot loop's
// codegen (see the placement rule next to OBS_SPAN in obs/obs.h).

MRC_OBS_NOINLINE std::size_t predict_quant_pass(const FieldF& f, double abs_eb,
                                                const InterpConfig& cfg, int lanes,
                                                FieldF& recon,
                                                AlignedVec<std::uint32_t>& codes,
                                                AlignedVec<float>& outliers) {
  const Dim3 d = f.dims();
  const auto radius = cfg.quant_radius;
  const float* orig = f.data();
  float* rec = recon.data();
  std::size_t emitted = 0;

  const int levels = std::max(ceil_log2(d.max_extent()), 1);
  const LinearQuantizer corner_quant{level_eb(abs_eb, levels, cfg), radius};
  for (const Corner& c : corner_list(d)) {
    const index_t idx = d.index(c.x, c.y, c.z);
    codes[emitted++] =
        corner_quant.encode(orig[idx], corner_prediction(recon, c), rec[idx], outliers);
  }

  std::vector<AlignedVec<float>> chunk_outliers;
  for (const Sweep& sw : sweep_plan(d)) {
    const double eb = level_eb(abs_eb, sw.lev, cfg);
    const LinearQuantizer quant{eb, radius};
    const std::size_t first_code = emitted;
    auto quantize_units = [&](index_t u0, index_t u1, AlignedVec<float>& out) {
      std::size_t ci = first_code + static_cast<std::size_t>(u0 * sw.per_unit);
      visit_units(
          d, rec, cfg.cubic, sw, u0, u1,
          [&](index_t idx, double pred, bool /*extrap*/) {
            codes[ci++] = quant.encode(orig[idx], pred, rec[idx], out);
          },
          [&](const RowCtx& rc) {
            const auto n = static_cast<std::size_t>(rc.n);
            const float* op = orig + rc.row;
            std::uint32_t* cp = codes.data() + ci;
            float* rp = rec + rc.row;
            if (rc.kind == RowKind::cubic)
              simd::quantize_row_cubic(op, rec + rc.a, rec + rc.b, rec + rc.c, rec + rc.d,
                                       n, eb, radius, cp, rp, out);
            else
              simd::quantize_row_linear(op, rec + rc.b, rec + rc.c, n, eb, radius, cp, rp,
                                        out);
            ci += n;
          });
    };
    const index_t chunks = chunk_count(sw, lanes);
    if (chunks == 1) {
      quantize_units(0, sw.units(), outliers);
    } else {
      // Each chunk collects its own outliers; appending them in chunk order
      // reproduces the serial order exactly. A chunk fills a list of its own
      // and only then moves it into the shared array, whose neighbouring
      // entries share cache lines.
      chunk_outliers.assign(static_cast<std::size_t>(chunks), {});
      exec::parallel_for(chunks, [&](index_t c) {
        AlignedVec<float> out;
        quantize_units(chunk_begin(sw, chunks, c), chunk_begin(sw, chunks, c + 1), out);
        chunk_outliers[static_cast<std::size_t>(c)] = std::move(out);
      }, lanes);
      for (index_t c = 0; c < chunks; ++c) {
        const auto& out = chunk_outliers[static_cast<std::size_t>(c)];
        outliers.insert(outliers.end(), out.begin(), out.end());
      }
    }
    emitted += static_cast<std::size_t>(sw.targets());
  }
  return emitted;
}

MRC_OBS_NOINLINE void predict_recon_pass(const Dim3& d, double stream_eb,
                                         const InterpConfig& cfg, int lanes,
                                         FieldF& recon,
                                         const AlignedVec<std::uint32_t>& codes,
                                         const AlignedVec<float>& outliers) {
  const auto radius = cfg.quant_radius;
  float* rec = recon.data();
  const std::span<const float> ospan(outliers.data(), outliers.size());

  std::size_t consumed = 0;
  std::size_t oi = 0;
  const int levels = std::max(ceil_log2(d.max_extent()), 1);
  const LinearQuantizer corner_quant{level_eb(stream_eb, levels, cfg), radius};
  for (const Corner& c : corner_list(d)) {
    const index_t idx = d.index(c.x, c.y, c.z);
    rec[idx] =
        corner_quant.decode(codes[consumed++], corner_prediction(recon, c), ospan, oi);
  }

  std::vector<std::size_t> first_outlier;
  for (const Sweep& sw : sweep_plan(d)) {
    const double eb = level_eb(stream_eb, sw.lev, cfg);
    const LinearQuantizer quant{eb, radius};
    const std::size_t first_code = consumed;
    auto unit_codes = [&](index_t u) {
      return first_code + static_cast<std::size_t>(u * sw.per_unit);
    };
    // Reconstructs units [u0, u1), whose first code-0 takes outlier `o`;
    // returns the outlier index after them.
    auto reconstruct_units = [&](index_t u0, index_t u1, std::size_t o) {
      std::size_t ci = unit_codes(u0);
      visit_units(
          d, rec, cfg.cubic, sw, u0, u1,
          [&](index_t idx, double pred, bool /*extrap*/) {
            rec[idx] = quant.decode(codes[ci++], pred, ospan, o);
          },
          [&](const RowCtx& rc) {
            const auto n = static_cast<std::size_t>(rc.n);
            const std::uint32_t* cp = codes.data() + ci;
            float* rp = rec + rc.row;
            if (rc.kind == RowKind::cubic)
              simd::dequantize_row_cubic(cp, rec + rc.a, rec + rc.b, rec + rc.c,
                                         rec + rc.d, n, eb, radius, rp, ospan, o);
            else
              simd::dequantize_row_linear(cp, rec + rc.b, rec + rc.c, n, eb, radius, rp,
                                          ospan, o);
            ci += n;
          });
      return o;
    };
    const index_t chunks = chunk_count(sw, lanes);
    if (chunks == 1) {
      oi = reconstruct_units(0, sw.units(), oi);
    } else {
      // A chunk's first outlier is the serial one: the code-0 count of the
      // chunks before it, prefix-summed from this sweep's first outlier.
      first_outlier.assign(static_cast<std::size_t>(chunks) + 1, 0);
      exec::parallel_for(chunks, [&](index_t c) {
        const std::uint32_t* b = codes.data() + unit_codes(chunk_begin(sw, chunks, c));
        const std::uint32_t* e = codes.data() + unit_codes(chunk_begin(sw, chunks, c + 1));
        first_outlier[static_cast<std::size_t>(c) + 1] =
            static_cast<std::size_t>(std::count(b, e, 0u));
      }, lanes);
      first_outlier[0] = oi;
      for (std::size_t c = 1; c < first_outlier.size(); ++c)
        first_outlier[c] += first_outlier[c - 1];
      exec::parallel_for(chunks, [&](index_t c) {
        (void)reconstruct_units(chunk_begin(sw, chunks, c), chunk_begin(sw, chunks, c + 1),
                                first_outlier[static_cast<std::size_t>(c)]);
      }, lanes);
      oi = first_outlier.back();
    }
    consumed += static_cast<std::size_t>(sw.targets());
  }
  if (oi != outliers.size()) throw CodecError("interp: outlier overrun");
}

}  // namespace

InterpCompressor::InterpCompressor(InterpConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.quant_radius >= 2 && cfg_.quant_radius <= lossless::kMaxQuantRadius,
              "quant radius out of range");
  MRC_REQUIRE(cfg_.alpha > 1.0 && cfg_.beta >= 1.0, "bad adaptive-eb parameters");
  MRC_REQUIRE(cfg_.threads >= 0, "negative lane count");
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

  // Per-lane scratch: tiled/pyramid/adaptive containers run one compress per
  // brick on an exec-pool lane, so these buffers are reused across bricks
  // instead of reallocated for each one. 64-byte aligned so the SIMD row
  // kernels' stores start on cache-line boundaries. The reconstruction is
  // scratch too, lent to a FieldF: the traversal writes every sample before
  // any prediction reads it, so a reused buffer needs no clearing.
  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  thread_local std::vector<float> recon_buf;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  const detail::ScratchGuard gr(recon_buf);
  codes.resize(static_cast<std::size_t>(d.size()));
  outliers.clear();
  recon_buf.resize(static_cast<std::size_t>(d.size()));
  FieldF recon(d, std::move(recon_buf));
  std::size_t emitted = 0;

  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.encode_ns");

  const int lanes = exec::lanes_here(cfg_.threads);
  {
    OBS_SPAN("interp.predict_quant", &ns_pq);
    emitted = predict_quant_pass(f, abs_eb, cfg_, lanes, recon, codes, outliers);
  }
  recon_buf = recon.release();
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
  detail::write_quant_payload(w, kPayloadNames, codes, radius, shards, lanes, outliers);
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
  // The constructor's condition; written this way round, a NaN fails too.
  if (!(cfg.alpha > 1.0 && cfg.beta >= 1.0))
    throw CodecError("interp: bad adaptive-eb parameters");
  cfg.quant_radius = detail::read_radius(r, "interp");

  // Per-lane scratch (see compress), written straight from the payload.
  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  detail::QuantPayload(r).decode(kPayloadNames, cfg.quant_radius,
                                 static_cast<std::uint64_t>(h.dims.size()), codes,
                                 outliers);

  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.decode_ns");
  FieldF recon(h.dims);
  OBS_SPAN("interp.predict_recon", &ns_pq);
  predict_recon_pass(h.dims, h.eb, cfg, exec::lanes_here(cfg_.threads), recon, codes,
                     outliers);
  return recon;
}

index_t InterpCompressor::count_extrapolated_points(Dim3 dims) {
  // Corners and row-uniform runs never extrapolate; only per-point sweeps
  // can reach past the grid.
  const FieldF scratch(dims, 0.0f);
  index_t count = 0;
  for (const Sweep& sw : sweep_plan(dims))
    visit_units(
        dims, scratch.data(), /*cubic=*/true, sw, 0, sw.units(),
        [&](index_t, double, bool extrap) { count += extrap ? 1 : 0; },
        [](const RowCtx&) {});
  return count;
}

}  // namespace mrc
