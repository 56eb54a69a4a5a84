#include "progressive/progressive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"

namespace mrc::progressive {

namespace {

inline constexpr pyramid::detail::TableFormat kTable{kProgressiveMagic, "progressive",
                                                    true};

/// Widest bin range bin_entropy counts in dense per-slab histograms; wider
/// or non-finite ranges take the map path. The benchmark's widest is a few
/// hundred bins (the level-0 residual).
inline constexpr long long kMaxDenseBins = 1 << 16;

/// Value range of a run of samples as std::minmax_element reports it: the
/// first smallest and the last largest, which decides the stored bits when
/// -0 and +0 tie. Starting from (+inf, -inf) gives the same answer as
/// starting from the first sample. NaN breaks the ordering that answer rests
/// on (where the NaN sits decides it), so a range that saw one is settled by
/// the serial call instead; see min_max.
struct Range {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -std::numeric_limits<float>::infinity();
  bool nan = false;

  void add(float v) {
    if (v < lo) lo = v;
    if (!(v < hi)) hi = v;
    nan = nan || std::isnan(v);
  }
  /// Folds in the range of the samples that follow this one's.
  void merge(const Range& later) {
    if (later.lo < lo) lo = later.lo;
    if (!(later.hi < hi)) hi = later.hi;
    nan = nan || later.nan;
  }
};

/// (min, max) of `f` exactly as f.min_max() gives it, from `r`, the
/// slab-merged range of f's samples.
std::pair<float, float> min_max(const FieldF& f, const Range& r) {
  return r.nan ? f.min_max() : std::pair{r.lo, r.hi};
}

// The passes below accumulate ranges in locals and store them back per row
// or slab: a Range in a vector element may alias the float samples read or
// written beside it, which would keep it out of registers.

MRC_OBS_NOINLINE Range range_pass(const FieldF& f, int threads) {
  const index_t plane = f.dims().nx * f.dims().ny;
  std::vector<Range> parts(static_cast<std::size_t>(exec::slab_count(f.dims().nz, threads)));
  exec::for_slabs(f.dims().nz, std::ssize(parts), [&](index_t s, index_t z0, index_t z1) {
    Range r;
    for (index_t i = z0 * plane; i < z1 * plane; ++i) r.add(f[i]);
    parts[static_cast<std::size_t>(s)] = r;
  }, threads);
  Range all;
  for (const Range& r : parts) all.merge(r);
  return all;
}

/// The fused residual pass of one level: resid = data - prolong(recon) per
/// sample (double subtract, one float rounding) with the prolongation
/// consumed row by row, never stored, plus the ranges of data and resid.
struct ResidualRanges {
  Range data, resid;
};
MRC_OBS_NOINLINE ResidualRanges residual_pass(const FieldF& data, const FieldF& recon,
                                              FieldF& resid, int threads) {
  const Dim3 d = data.dims();
  std::vector<ResidualRanges> parts(static_cast<std::size_t>(exec::slab_count(d.nz, threads)));
  exec::for_slabs(d.nz, std::ssize(parts), [&](index_t s, index_t z0, index_t z1) {
    ResidualRanges& part = parts[static_cast<std::size_t>(s)];
    prolong_trilinear_rows(recon, d, z0, z1, [&](index_t y, index_t z, const float* v) {
      const float* in = &data.at(0, y, z);
      float* out = &resid.at(0, y, z);
      ResidualRanges r = part;
      for (index_t x = 0; x < d.nx; ++x) {
        const float res =
            static_cast<float>(static_cast<double>(in[x]) - static_cast<double>(v[x]));
        out[x] = res;
        r.data.add(in[x]);
        r.resid.add(res);
      }
      part = r;
    });
  }, threads);
  ResidualRanges all;
  for (const ResidualRanges& r : parts) {
    all.data.merge(r.data);
    all.resid.merge(r.resid);
  }
  return all;
}

/// recon = prolong(coarse) + decoded per sample, written over `decoded`:
/// refine's expression, so the fold needs no prolonged field of its own.
MRC_OBS_NOINLINE void fold(const FieldF& coarse, FieldF& decoded, int threads) {
  const Dim3 d = decoded.dims();
  exec::for_slabs(d.nz, exec::slab_count(d.nz, threads), [&](index_t, index_t z0, index_t z1) {
    prolong_trilinear_rows(coarse, d, z0, z1, [&](index_t y, index_t z, const float* v) {
      float* r = &decoded.at(0, y, z);
      for (index_t x = 0; x < d.nx; ++x)
        r[x] = static_cast<float>(static_cast<double>(v[x]) + static_cast<double>(r[x]));
    });
  }, threads);
}

/// std::llround for |q| < 2^62 without the libm call. The cast truncates
/// toward zero exactly and q - t is exact, so the half-way test sees the
/// true fraction; (long long)(q + 0.5) does not, since
/// 0.49999999999999994 + 0.5 rounds up to 1.
long long round_half_away(double q) {
  const auto t = static_cast<long long>(q);
  const double r = q - static_cast<double>(t);
  return t + (r >= 0.5 ? 1 : 0) - (r <= -0.5 ? 1 : 0);
}

using BinMap = std::unordered_map<long long, std::uint64_t>;

float entropy_of(const BinMap& bins, index_t samples) {
  const double n = static_cast<double>(samples);
  double h = 0.0;
  for (const auto& [bin, count] : bins) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return static_cast<float>(h);
}

/// Shannon entropy (bits/sample) of the field quantized into 2*eb-wide bins
/// — the same bin width the quantizer uses, so this estimates the entropy
/// the Huffman stage actually sees. Recorded per level for `mrcc
/// progressive`'s table. `range` is the slab-merged range of f.
///
/// Bin b of sample v is llround(v / (2eb)), monotone in v, so every bin lies
/// in [bin(lo), bin(hi)]. Within kMaxDenseBins each slab counts into a dense
/// histogram and lists its bins in first-occurrence order. The sum below adds
/// the bins in the map's iteration order, and that order follows the map's
/// insertion history, so the distinct bins are inserted in first-occurrence
/// order: the order the per-sample ++bins[b] map path inserts them in. The
/// map is never reserve()d, because its bucket count decides the iteration
/// order too. No test tells this order from plain bin order (reordering the
/// sum rarely moves the rounded float), but it is the order that provably
/// reproduces the stored bytes, which is what the frozen format asks for.
/// NaN, non-finite or too-wide ranges take the map path itself.
MRC_OBS_NOINLINE float bin_entropy(const FieldF& f, double eb, const Range& range,
                                   int threads) {
  const double width = 2.0 * eb;
  const auto map_path = [&] {
    BinMap bins;
    for (index_t i = 0; i < f.size(); ++i)
      ++bins[std::llround(static_cast<double>(f[i]) / width)];
    return entropy_of(bins, f.size());
  };
  constexpr double kMaxBin = 0x1p62;
  const double q_lo = static_cast<double>(range.lo) / width;
  const double q_hi = static_cast<double>(range.hi) / width;
  if (range.nan || !(std::abs(q_lo) < kMaxBin && std::abs(q_hi) < kMaxBin))
    return map_path();
  const long long b0 = round_half_away(q_lo);
  const long long n_bins = round_half_away(q_hi) - b0 + 1;
  if (n_bins > kMaxDenseBins) return map_path();

  struct Hist {
    std::vector<std::uint64_t> count;
    std::vector<std::size_t> seen;  ///< bins (minus b0) in first-occurrence order
  };
  const auto bins_n = static_cast<std::size_t>(n_bins);
  const index_t plane = f.dims().nx * f.dims().ny;
  std::vector<Hist> hists(static_cast<std::size_t>(exec::slab_count(f.dims().nz, threads)));
  exec::for_slabs(f.dims().nz, std::ssize(hists), [&](index_t s, index_t z0, index_t z1) {
    Hist& h = hists[static_cast<std::size_t>(s)];
    h.count.assign(bins_n, 0);
    // A local, so the rare push_back call does not force a reload per sample.
    std::uint64_t* count = h.count.data();
    for (index_t i = z0 * plane; i < z1 * plane; ++i) {
      const auto b = static_cast<std::size_t>(
          round_half_away(static_cast<double>(f[i]) / width) - b0);
      if (count[b]++ == 0) h.seen.push_back(b);
    }
  }, threads);

  // Slabs are in sample order, so their first occurrences in slab order,
  // minus bins an earlier slab already inserted, are the field's.
  std::vector<std::uint64_t> total(bins_n, 0);
  for (const Hist& h : hists)
    for (std::size_t b = 0; b < bins_n; ++b) total[b] += h.count[b];
  BinMap bins;
  for (const Hist& h : hists)
    for (const std::size_t b : h.seen)
      bins.try_emplace(b0 + static_cast<long long>(b), total[b]);
  return entropy_of(bins, f.size());
}

/// Zeroth-order entropy (bits/sample) of round_half_away((v - p) / 2eb),
/// where p is the 7-point 3-D Lorenzo prediction of v from the unquantized
/// field (out-of-domain neighbours read 0): SZ2's selection estimate, the
/// Lorenzo counterpart of bin_entropy's no-prediction figure. `vmax` is
/// max|v|.
///
/// One z-slabbed pass; the stencil only reads across slab edges, so the
/// counts, and the sum taken over them in bin order, are the same on any
/// lane count. |v - p| <= 8 * vmax bounds the bins, which dense per-slab
/// histograms cover up to kMaxDenseBins; wider or non-finite bounds count
/// into per-slab ordered maps instead. Non-finite differences, and any
/// outside the histogram, share one escape bin.
MRC_OBS_NOINLINE float lorenzo_entropy(const FieldF& f, double eb, float vmax,
                                       int threads) {
  const Dim3 d = f.dims();
  const double width = 2.0 * eb;
  // One bin of slack on each side absorbs the rounding of the double sums.
  const double reach = 8.0 * static_cast<double>(vmax) / width + 1.0;
  const bool dense = std::isfinite(reach) && 2.0 * std::ceil(reach) + 1.0 <= kMaxDenseBins;
  const long long b_max = dense ? static_cast<long long>(std::ceil(reach)) : 0;
  const auto bins_n = static_cast<std::size_t>(2 * b_max + 1);

  struct Counts {
    std::vector<std::uint64_t> dense;     ///< bin + b_max
    std::map<long long, std::uint64_t> sparse;
    std::uint64_t escape = 0;
  };
  const std::vector<float> zero_row(static_cast<std::size_t>(d.nx), 0.0f);
  std::vector<Counts> parts(static_cast<std::size_t>(exec::slab_count(d.nz, threads)));
  exec::for_slabs(d.nz, std::ssize(parts), [&](index_t s, index_t z0, index_t z1) {
    Counts& c = parts[static_cast<std::size_t>(s)];
    if (dense) c.dense.assign(bins_n, 0);
    std::uint64_t escape = 0;
    const auto row = [&](index_t y, index_t z) {
      return y < 0 || z < 0 ? zero_row.data() : &f.at(0, y, z);
    };
    for (index_t z = z0; z < z1; ++z)
      for (index_t y = 0; y < d.ny; ++y) {
        const float* v = row(y, z);
        const float* vy = row(y - 1, z);
        const float* vz = row(y, z - 1);
        const float* vyz = row(y - 1, z - 1);
        for (index_t x = 0; x < d.nx; ++x) {
          const bool in = x > 0;
          const double p = (in ? static_cast<double>(v[x - 1]) : 0.0) + vy[x] + vz[x] -
                           (in ? static_cast<double>(vy[x - 1]) : 0.0) -
                           (in ? static_cast<double>(vz[x - 1]) : 0.0) - vyz[x] +
                           (in ? static_cast<double>(vyz[x - 1]) : 0.0);
          const double q = (static_cast<double>(v[x]) - p) / width;
          if (!(std::abs(q) < 0x1p62)) {
            ++escape;
            continue;
          }
          const long long b = round_half_away(q);
          if (!dense)
            ++c.sparse[b];
          else if (b < -b_max || b > b_max)
            ++escape;
          else
            ++c.dense[static_cast<std::size_t>(b + b_max)];
        }
      }
    c.escape = escape;
  }, threads);

  std::vector<std::uint64_t> counts;
  std::uint64_t escape = 0;
  if (dense) {
    counts.assign(bins_n, 0);
    for (const Counts& c : parts)
      for (std::size_t b = 0; b < bins_n; ++b) counts[b] += c.dense[b];
  } else {
    std::map<long long, std::uint64_t> all;
    for (const Counts& c : parts)
      for (const auto& [b, n] : c.sparse) all[b] += n;
    for (const auto& [b, n] : all) counts.push_back(n);
  }
  for (const Counts& c : parts) escape += c.escape;
  counts.push_back(escape);

  const double n = static_cast<double>(f.size());
  double h = 0.0;
  for (const std::uint64_t k : counts) {
    if (k == 0) continue;
    const double p = static_cast<double>(k) / n;
    h -= p * std::log2(p);
  }
  return static_cast<float>(h);
}

}  // namespace

std::vector<tiled::Box> support_chain(const Index& idx, int level,
                                      const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  std::vector<tiled::Box> boxes(idx.levels.size());
  boxes[static_cast<std::size_t>(level)] = region;
  for (int l = level; l < top; ++l) {
    const tiled::Box& b = boxes[static_cast<std::size_t>(l)];
    const SupportBox s =
        prolong_support(idx.levels[static_cast<std::size_t>(l + 1)].dims,
                        idx.levels[static_cast<std::size_t>(l)].dims, b.lo, b.extent());
    boxes[static_cast<std::size_t>(l + 1)] = {
        s.origin,
        {s.origin.x + s.extent.nx, s.origin.y + s.extent.ny, s.origin.z + s.extent.nz}};
  }
  return boxes;
}

FieldF refine(const FieldF& coarse_window, const tiled::Box& coarse_box,
              Dim3 coarse_dims, const FieldF& residual, const tiled::Box& fine_box,
              Dim3 fine_dims) {
  MRC_REQUIRE(coarse_window.dims() == coarse_box.extent() &&
                  residual.dims() == fine_box.extent(),
              "progressive: refine window extents mismatch");
  // recon = prolong + residual per sample, accumulated in double with the
  // prolonged sample first and rounded once to float. Build, full decode,
  // windowed reads and the wire client all go through this expression,
  // which is what makes every path bit-identical. The prolonged rows go
  // straight into the sum: no prolonged window is stored.
  const Dim3 fe = fine_box.extent();
  FieldF out(fe);
  prolong_trilinear_region_rows(
      coarse_window, coarse_box.lo, coarse_dims, fine_dims, fine_box.lo, fe,
      [&](index_t y, index_t z, const float* v) {
        const float* r = &residual.at(0, y, z);
        float* o = &out.at(0, y, z);
        for (index_t x = 0; x < fe.nx; ++x)
          o[x] = static_cast<float>(static_cast<double>(v[x]) + static_cast<double>(r[x]));
      });
  return out;
}

Bytes build(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "progressive: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "progressive: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "progressive: brick edge must be >= 1");
  MRC_REQUIRE(cfg.levels >= 0 && cfg.levels <= kMaxLevels,
              "progressive: level count must be in [0, " + std::to_string(kMaxLevels) +
                  "]");
  const Dim3 d = f.dims();
  const int n_levels = cfg.levels == 0 ? auto_levels(d, cfg.brick) : cfg.levels;

  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tc.threads = cfg.threads;
  tiled::Config tc_resid = tc;
  tc_resid.codec = cfg.resid_codec;  // "auto" resolves at the first residual level

  // Every full-grid pass below runs on z-slabs across cfg.threads lanes;
  // brick compression and decode fan out inside tiled::.
  //
  // The restrict_half chain: chain[l] holds level l >= 1, level 0 reads
  // straight from f.
  std::vector<FieldF> chain(static_cast<std::size_t>(n_levels));
  {
    OBS_SPAN("progressive.restrict");
    for (int l = 1; l < n_levels; ++l) {
      const FieldF& fine = l == 1 ? f : chain[static_cast<std::size_t>(l - 1)];
      FieldF& coarse = chain[static_cast<std::size_t>(l)];
      coarse = FieldF(blocks_for(fine.dims(), 2));
      const index_t nz = coarse.dims().nz;
      exec::for_slabs(nz, exec::slab_count(nz, cfg.threads),
                      [&](index_t, index_t z0, index_t z1) {
                        restrict_slab(fine, coarse, 2, z0, z1);
                      },
                      cfg.threads);
    }
  }
  auto level_data = [&](int l) -> const FieldF& {
    return l == 0 ? f : chain[static_cast<std::size_t>(l)];
  };

  std::vector<Bytes> streams(static_cast<std::size_t>(n_levels));
  std::vector<LevelEntry> entries(static_cast<std::size_t>(n_levels));

  // Top-down with the decoder in the loop: each residual is measured against
  // the *reconstruction* the reader will actually have, so per-level decode
  // error stays at eb instead of accumulating down the chain.
  FieldF recon;
  for (int l = n_levels - 1; l >= 0; --l) {
    OBS_SPAN("progressive.level_compress");
    const FieldF& data = level_data(l);
    const bool top = l == n_levels - 1;
    LevelEntry& e = entries[static_cast<std::size_t>(l)];
    e.dims = data.dims();
    e.cum_err = static_cast<float>(abs_eb * (n_levels - l));
    e.approx_err = static_cast<float>(
        l == 0 ? static_cast<double>(e.cum_err)
               : pyramid::prolong_error(data, f, cfg.threads) +
                     static_cast<double>(e.cum_err));

    // The coarsest level is stored verbatim, so its "residual" statistics
    // describe the data.
    FieldF resid;
    ResidualRanges ranges;
    {
      OBS_SPAN("progressive.residual");
      if (top) {
        ranges.data = ranges.resid = range_pass(data, cfg.threads);
      } else {
        resid = FieldF(data.dims());
        ranges = residual_pass(data, recon, resid, cfg.threads);
      }
    }
    const FieldF& coded = top ? data : resid;
    std::tie(e.vmin, e.vmax) = min_max(data, ranges.data);
    const auto [lo, hi] = min_max(coded, ranges.resid);
    e.resid_max = std::max(std::abs(lo), std::abs(hi));
    {
      OBS_SPAN("progressive.bin_entropy");
      e.resid_entropy = bin_entropy(coded, abs_eb, ranges.resid, cfg.threads);
    }
    // The reader wants one codec for every residual level, so the choice is
    // made once, on the coarsest residual, and holds for the finer ones.
    if (!top && tc_resid.codec == "auto") {
      OBS_SPAN("progressive.resid_codec_choice");
      tc_resid.codec =
          e.resid_entropy <= lorenzo_entropy(resid, abs_eb, e.resid_max, cfg.threads)
              ? "quantize"
              : "lorenzo";
    }
    Bytes& stream = streams[static_cast<std::size_t>(l)];
    stream = tiled::compress(coded, abs_eb, top ? tc : tc_resid);
    if (l == 0) break;
    FieldF decoded = tiled::decompress(stream, cfg.threads);
    if (!top) {
      OBS_SPAN("progressive.fold");
      fold(recon, decoded, cfg.threads);
    }
    recon = std::move(decoded);
  }

  return pyramid::detail::write_table(kTable, d, abs_eb, std::move(entries), streams);
}

Index read_geometry(std::span<const std::byte> stream) {
  return pyramid::detail::read_table(kTable, stream);
}

Index read_index(std::span<const std::byte> stream) {
  return pyramid::detail::read_table_checked(kTable, stream);
}

FieldF decompress_level(std::span<const std::byte> stream, int level, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  OBS_SPAN("progressive.level_decode");
  FieldF recon =
      tiled::decompress(idx.level_stream(stream, static_cast<std::size_t>(top)),
                        threads);
  for (int l = top - 1; l >= level; --l) {
    FieldF decoded =
        tiled::decompress(idx.level_stream(stream, static_cast<std::size_t>(l)), threads);
    {
      OBS_SPAN("progressive.fold");
      fold(recon, decoded, threads);
    }
    recon = std::move(decoded);
  }
  return recon;
}

FieldF read_region(std::span<const std::byte> stream, int level,
                   const tiled::Box& region, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  const auto boxes = support_chain(idx, level, region);
  OBS_SPAN("progressive.level_decode");
  FieldF window =
      tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(top)),
                         boxes[static_cast<std::size_t>(top)], threads)
          .data;
  for (int l = top - 1; l >= level; --l) {
    const tiled::Box& fine_box = boxes[static_cast<std::size_t>(l)];
    const FieldF resid =
        tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(l)),
                           fine_box, threads)
            .data;
    window = refine(window, boxes[static_cast<std::size_t>(l + 1)],
                    idx.levels[static_cast<std::size_t>(l + 1)].dims, resid, fine_box,
                    idx.levels[static_cast<std::size_t>(l)].dims);
  }
  return window;
}

}  // namespace mrc::progressive
