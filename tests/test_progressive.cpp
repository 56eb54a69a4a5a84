// progressive:: residual pyramid container (MRCR) — level table geometry,
// the telescoped error-bound model (per-level decode error stays at eb
// because residuals are measured against the reconstruction), bit-exact
// windowed reads, determinism across thread counts, the z-slabbed build
// and fold against the serial code they replaced (ProgressiveProperty,
// compared with memcmp), the serve-layer path
// (Dataset + the multi-frame wire read, including graceful degradation when
// the connection drops mid-refinement), and the same hostile-input
// discipline as test_pyramid.cpp: hostile counts, off-chain extents,
// overlapping records, nested-codec mismatches, and an exhaustive
// single-byte-flip pass over header + level table. ci.sh reruns
// Progressive* under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/registry.h"
#include "grid/field_ops.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "progressive/progressive.h"
#include "serve/dataset.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "test_util.h"

namespace mrc {
namespace {

using serve::Server;
using serve::ServerConfig;
using serve::ServerError;
using tiled::Box;
namespace wire = serve::wire;

Bytes make_progressive(const FieldF& f, const std::string& codec = "interp",
                       const std::string& resid_codec = "lorenzo",
                       index_t brick = 16, int threads = 2, double eb = 0.05,
                       int levels = 0) {
  progressive::Config cfg;
  cfg.codec = codec;
  cfg.resid_codec = resid_codec;
  cfg.brick = brick;
  cfg.threads = threads;
  cfg.levels = levels;
  return progressive::build(f, eb, cfg);
}

/// Re-serializes a (possibly mutated) level table in front of the original
/// payload — corrupt exactly one field of the table and nothing else.
Bytes rebuild(const progressive::Index& idx, std::span<const std::byte> payload) {
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, progressive::kProgressiveMagic, idx.dims, idx.eb);
  w.put_varint(idx.levels.size());
  w.put_varint(idx.payload_bytes);
  for (const auto& e : idx.levels) {
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.dims.nx));
    w.put_varint(static_cast<std::uint64_t>(e.dims.ny));
    w.put_varint(static_cast<std::uint64_t>(e.dims.nz));
    w.put(e.vmin);
    w.put(e.vmax);
    w.put(e.resid_max);
    w.put(e.resid_entropy);
    w.put(e.cum_err);
    w.put(e.approx_err);
  }
  w.put_bytes(payload);
  return out;
}

/// Applies `mutate` to a freshly parsed index and returns the corrupted
/// stream.
template <typename M>
Bytes corrupt(std::span<const std::byte> stream, M mutate) {
  progressive::Index idx = progressive::read_index(stream);
  const auto payload = stream.subspan(idx.payload_offset);
  mutate(idx);
  return rebuild(idx, payload);
}

ServerConfig quiet(std::size_t cache_bytes = 256ull << 20, int threads = 2) {
  ServerConfig cfg;
  cfg.cache_bytes = cache_bytes;
  cfg.threads = threads;
  cfg.prefetch = false;
  return cfg;
}

wire::Transport loopback(Server& srv) {
  return [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
}

// ---------------------------------------------------------------------------
// Level table + codecs.
// ---------------------------------------------------------------------------

TEST(Progressive, IndexRecordsChainCodecsAndTelescopedBounds) {
  const FieldF f = test::smooth_field({40, 36, 28});
  const double eb = 0.05;
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 16, 2, eb);
  const auto idx = progressive::read_index(stream);
  ASSERT_EQ(idx.levels.size(), 3u);  // 40x36x28 -> 20x18x14 -> 10x9x7
  // Residual levels and the coarsest data level carry their own codecs.
  EXPECT_EQ(idx.codec, "lorenzo");
  EXPECT_EQ(idx.data_codec, "interp");
  EXPECT_EQ(idx.brick, 16);
  EXPECT_EQ(idx.dims, f.dims());
  EXPECT_EQ(idx.levels[0].dims, f.dims());
  EXPECT_EQ(idx.levels[1].dims, (Dim3{20, 18, 14}));
  EXPECT_EQ(idx.levels[2].dims, (Dim3{10, 9, 7}));
  // The telescoped a-priori bound: cum_err(L) = eb * (n_levels - L).
  const auto n = static_cast<int>(idx.levels.size());
  for (int l = 0; l < n; ++l)
    EXPECT_FLOAT_EQ(idx.levels[static_cast<std::size_t>(l)].cum_err,
                    static_cast<float>(eb * (n - l)))
        << l;
  // approx_err: the finest level is its cumulative bound; coarser levels add
  // the measured prolongation error on top.
  EXPECT_FLOAT_EQ(idx.levels[0].approx_err, idx.levels[0].cum_err);
  EXPECT_GT(idx.levels[1].approx_err, idx.levels[1].cum_err);
}

TEST(Progressive, SingleLevelStreamIsDataOnly) {
  const FieldF f = test::smooth_field({12, 12, 12});
  const Bytes stream = make_progressive(f, "zfpx", "lorenzo", 16, 1, 0.05, 1);
  const auto idx = progressive::read_index(stream);
  ASSERT_EQ(idx.levels.size(), 1u);
  // The only level is the coarsest: stored verbatim under the data codec,
  // and the two codec slots agree.
  EXPECT_EQ(idx.codec, "zfpx");
  EXPECT_EQ(idx.data_codec, "zfpx");
  EXPECT_EQ(progressive::decompress_level(stream, 0, 1).dims(), f.dims());
}

// ---------------------------------------------------------------------------
// Error bounds: residual-vs-reconstruction keeps every level at eb.
// ---------------------------------------------------------------------------

TEST(Progressive, EveryLevelStaysWithinEbNotJustTheTelescope) {
  const FieldF f = test::noise_field({40, 36, 28}, 25.0);
  const double eb = 0.05;
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 16, 2, eb);
  const auto idx = progressive::read_index(stream);
  FieldF level_data = f;
  for (std::size_t l = 0; l < idx.levels.size(); ++l) {
    if (l > 0) level_data = restrict_half(level_data);
    const FieldF recon = progressive::decompress_level(stream, static_cast<int>(l), 2);
    ASSERT_EQ(recon.dims(), level_data.dims()) << l;
    const double err = test::max_abs_err(level_data, recon);
    // The conservative telescoped bound always holds...
    EXPECT_LE(err, idx.levels[l].cum_err * (1 + 1e-6)) << l;
    // ...and the stronger property too: residuals are measured against the
    // reconstruction, so the error never telescopes past eb (+ rounding).
    EXPECT_LE(err, eb * (1 + 1e-3)) << l;
  }
}

// ---------------------------------------------------------------------------
// Bit-exact reconstruction paths.
// ---------------------------------------------------------------------------

TEST(Progressive, EveryLevelRegionReadMatchesFullLevelDecode) {
  const FieldF f = test::noise_field({40, 36, 28}, 25.0);
  const Bytes stream = make_progressive(f);
  const auto idx = progressive::read_index(stream);
  for (int l = 0; l < static_cast<int>(idx.levels.size()); ++l) {
    const FieldF full = progressive::decompress_level(stream, l, 2);
    const Dim3 ld = idx.levels[static_cast<std::size_t>(l)].dims;
    ASSERT_EQ(full.dims(), ld) << l;
    const FieldF whole = progressive::read_region(stream, l, tiled::full_box(ld), 2);
    EXPECT_EQ(whole, full) << l;
    // A brick-crossing window matches the same window of the full decode —
    // the support-chain read reproduces the exact arithmetic.
    const Box win{{ld.nx / 4, 0, ld.nz / 3},
                  {ld.nx / 4 + std::max<index_t>(1, ld.nx / 2), ld.ny,
                   ld.nz / 3 + std::max<index_t>(1, ld.nz / 3)}};
    const FieldF wr = progressive::read_region(stream, l, win, 2);
    ASSERT_EQ(wr.dims(), win.extent()) << l;
    for (index_t z = 0; z < wr.dims().nz; ++z)
      for (index_t y = 0; y < wr.dims().ny; ++y)
        for (index_t x = 0; x < wr.dims().nx; ++x)
          ASSERT_EQ(wr.at(x, y, z), full.at(win.lo.x + x, win.lo.y + y, win.lo.z + z))
              << l;
  }
}

TEST(Progressive, StreamBytesIdenticalForAnyThreadCount) {
  const FieldF f = test::noise_field({33, 21, 18}, 10.0);
  const Bytes s1 = make_progressive(f, "interp", "lorenzo", 16, 1);
  const Bytes s3 = make_progressive(f, "interp", "lorenzo", 16, 3);
  const Bytes s7 = make_progressive(f, "interp", "lorenzo", 16, 7);
  EXPECT_EQ(s1, s3);
  EXPECT_EQ(s1, s7);
  // And the decode side too: any thread count reconstructs the same bits.
  const FieldF d1 = progressive::decompress_level(s1, 0, 1);
  const FieldF d7 = progressive::decompress_level(s1, 0, 7);
  EXPECT_EQ(d1, d7);
}

// ---------------------------------------------------------------------------
// The slabbed build passes and fold against the serial code they replaced.
// ---------------------------------------------------------------------------

/// The serial level-table statistics and fold the slabbed passes replaced,
/// kept as references: map-counted bin entropy, minmax_element, max |v|,
/// and per-sample subtract / add against a whole-field prolongation.
float serial_bin_entropy(const FieldF& f, double eb) {
  std::unordered_map<long long, std::uint64_t> bins;
  for (index_t i = 0; i < f.size(); ++i)
    ++bins[std::llround(static_cast<double>(f[i]) / (2.0 * eb))];
  const double n = static_cast<double>(f.size());
  double h = 0.0;
  for (const auto& [bin, count] : bins) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return static_cast<float>(h);
}

float serial_max_abs(const FieldF& f) {
  const auto [lo, hi] = f.min_max();
  return std::max(std::abs(lo), std::abs(hi));
}

FieldF serial_subtract(const FieldF& data, const FieldF& base) {
  FieldF out(data.dims());
  for (index_t i = 0; i < data.size(); ++i)
    out[i] =
        static_cast<float>(static_cast<double>(data[i]) - static_cast<double>(base[i]));
  return out;
}

void serial_add_into(FieldF& acc, const FieldF& add) {
  for (index_t i = 0; i < acc.size(); ++i)
    acc[i] =
        static_cast<float>(static_cast<double>(acc[i]) + static_cast<double>(add[i]));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// Recomputes `stream`'s level table, every nested stream and its level-0
/// decode with the serial reference (each residual decoded from the stream
/// itself, as the build's in-loop decoder does) and compares them bit for
/// bit with what progressive::build wrote and decompress_level returns.
void expect_matches_serial(const FieldF& f, double eb, const progressive::Config& cfg,
                           const Bytes& stream, int lanes) {
  const auto idx = progressive::read_index(stream);
  const int n = static_cast<int>(idx.levels.size());
  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tiled::Config tc_resid = tc;
  tc_resid.codec = cfg.resid_codec;
  std::vector<FieldF> chain{f};
  for (int l = 1; l < n; ++l) chain.push_back(restrict_half(chain.back()));

  FieldF recon;
  for (int l = n - 1; l >= 0; --l) {
    SCOPED_TRACE(::testing::Message() << "level " << l);
    const FieldF& data = chain[static_cast<std::size_t>(l)];
    const progressive::LevelEntry& e = idx.levels[static_cast<std::size_t>(l)];
    const bool top = l == n - 1;
    FieldF prolonged = top ? FieldF() : prolong_trilinear(recon, data.dims());
    const FieldF coded = top ? data : serial_subtract(data, prolonged);

    const auto [lo, hi] = data.min_max();
    const float cum_err = static_cast<float>(eb * (n - l));
    const double lod_err = l == 0 ? 0.0 : prolong_error_slab(data, f, 0, f.dims().nz);
    const float approx_err = static_cast<float>(
        l == 0 ? static_cast<double>(cum_err) : lod_err + static_cast<double>(cum_err));
    EXPECT_EQ(e.dims, data.dims());
    EXPECT_TRUE(same_bits(e.vmin, lo)) << e.vmin << " vs " << lo;
    EXPECT_TRUE(same_bits(e.vmax, hi)) << e.vmax << " vs " << hi;
    EXPECT_TRUE(same_bits(e.resid_max, serial_max_abs(coded)))
        << e.resid_max << " vs " << serial_max_abs(coded);
    EXPECT_TRUE(same_bits(e.resid_entropy, serial_bin_entropy(coded, eb)))
        << e.resid_entropy << " vs " << serial_bin_entropy(coded, eb);
    EXPECT_TRUE(same_bits(e.cum_err, cum_err));
    EXPECT_TRUE(same_bits(e.approx_err, approx_err));

    const auto level_stream = idx.level_stream(stream, static_cast<std::size_t>(l));
    const Bytes expect = tiled::compress(coded, eb, top ? tc : tc_resid);
    EXPECT_TRUE(std::equal(level_stream.begin(), level_stream.end(), expect.begin(),
                           expect.end()));
    FieldF decoded = tiled::decompress(level_stream, 1);
    if (top) {
      recon = std::move(decoded);
    } else {
      serial_add_into(prolonged, decoded);
      recon = std::move(prolonged);
    }
  }
  EXPECT_TRUE(same_bits(progressive::decompress_level(stream, 0, lanes), recon));
}

TEST(ProgressiveProperty, ParallelBuildMatchesSerialReference) {
  Rng rng(2407);
  constexpr std::array<index_t, 9> kPrimeOrUnit{1, 2, 3, 5, 7, 11, 13, 17, 23};
  constexpr std::array<index_t, 5> kBricks{3, 4, 6, 8, 16};
  auto extent = [&] {
    return rng.uniform_index(3) == 0
               ? 1 + static_cast<index_t>(rng.uniform_index(24))
               : kPrimeOrUnit[rng.uniform_index(kPrimeOrUnit.size())];
  };
  auto pick = [&](index_t n) { return static_cast<index_t>(rng.uniform_index(n)); };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // v = 0.37f sits at q = v / (2eb) = nextafter(0.5, 0) under this bound:
  // llround gives 0 there, (long long)(q + 0.5) gives 1.
  const double half_eb = 0.37000000476837164;
  ASSERT_EQ(static_cast<double>(0.37f) / (2.0 * half_eb), std::nextafter(0.5, 0.0));

  for (int t = 0; t < 240; ++t) {
    Dim3 d{extent(), extent(), extent()};
    // Every kind of case below (t % 8) runs on 1-4 lanes; every fifth case
    // runs more lanes than z-planes.
    int lanes = 1 + (t / 8) % 4;
    if (t % 5 == 4) {
      d.nz = 1 + pick(4);
      lanes = static_cast<int>(d.nz + 1 + pick(3));
    }
    progressive::Config cfg;
    cfg.brick = kBricks[rng.uniform_index(kBricks.size())];
    cfg.levels =
        rng.uniform_index(2) == 0 ? 0 : 1 + static_cast<int>(rng.uniform_index(4));
    cfg.threads = lanes;
    double eb = 0.05;
    FieldF f = test::noise_field(d, 10.0, static_cast<std::uint64_t>(t));
    const char* kind = "noise";
    switch (t % 8) {
      case 1:  // zeros of both signs on one side of the data: +-0 ties
        kind = "signed zeros";
        for (index_t i = 0; i < f.size(); ++i)
          f[i] = rng.uniform_index(3) == 0
                     ? (t % 16 == 1 ? 1.0f : -1.0f) * std::abs(f[i])
                     : (rng.uniform_index(2) == 0 ? -0.0f : 0.0f);
        break;
      case 2:  // one NaN, at the first sample or anywhere
        kind = "NaN";
        f[t % 16 == 2 ? 0 : pick(f.size())] = nan;
        break;
      case 3:
        kind = "inf";
        f[pick(f.size())] = t % 16 == 3 ? inf : -inf;
        break;
      case 4:  // ~3e7 bins: too wide for the dense histogram
        kind = "map path";
        eb = 1e-6;
        break;
      case 5:  // every sample on a bin edge +-(k + 1/2) * 2eb
        kind = "bin edges";
        eb = 0.25;
        if (t % 16 == 5) cfg.levels = 1;
        for (index_t i = 0; i < f.size(); ++i)
          f[i] = (static_cast<float>(pick(40)) - 20.0f + 0.5f) * 0.5f;
        break;
      case 6:  // single level, samples at q = nextafter(0.5, 0)
        kind = "half-way";
        eb = half_eb;
        cfg.levels = 1;
        for (index_t i = 0; i < f.size(); ++i)
          if (rng.uniform_index(4) != 0)
            f[i] = rng.uniform_index(3) == 0 ? -0.37f : 0.37f;
        break;
      case 7:
        kind = "smooth";
        f = test::smooth_field(d);
        break;
      default:
        break;
    }
    SCOPED_TRACE(::testing::Message()
                 << "case " << t << " (" << kind << ") " << d.str() << " brick "
                 << cfg.brick << " levels " << cfg.levels << " lanes " << lanes);
    const Bytes stream = progressive::build(f, eb, cfg);
    expect_matches_serial(f, eb, cfg, stream, lanes);
    if (::testing::Test::HasFailure()) return;
  }
}

/// The refinement step composed as it was before the add moved into the
/// prolongation rows: prolong the fine window, then add the residual into it
/// in place, prolonged sample first.
FieldF prolong_then_add(const FieldF& coarse_window, const tiled::Box& coarse_box,
                        Dim3 coarse_dims, const FieldF& residual,
                        const tiled::Box& fine_box, Dim3 fine_dims) {
  FieldF acc = prolong_trilinear_region(coarse_window, coarse_box.lo, coarse_dims,
                                        fine_dims, fine_box.lo, fine_box.extent());
  const Dim3 d = acc.dims();
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        acc.at(x, y, z) = static_cast<float>(static_cast<double>(acc.at(x, y, z)) +
                                             static_cast<double>(residual.at(x, y, z)));
  return acc;
}

TEST(ProgressiveProperty, RefineMatchesProlongThenAdd) {
  Rng rng(1931);
  constexpr std::array<index_t, 10> kOddOrPrime{1, 2, 3, 5, 7, 9, 11, 13, 17, 23};
  auto pick = [&](index_t n) {
    return static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(n)));
  };
  auto extent = [&] {
    return rng.uniform_index(3) == 0 ? 1 + pick(40)
                                     : kOddOrPrime[rng.uniform_index(kOddOrPrime.size())];
  };
  const std::array<float, 10> kSpecial{
      0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 3.0e-39f, -1.1754942e-38f};
  // Replaces about one sample in `one_in` with a signed zero, a NaN, an
  // infinity or a subnormal.
  auto salt = [&](FieldF& f, std::uint64_t one_in) {
    for (index_t i = 0; i < f.size(); ++i)
      if (rng.uniform_index(one_in) == 0)
        f[i] = kSpecial[rng.uniform_index(kSpecial.size())];
  };

  for (int t = 0; t < 240; ++t) {
    const Dim3 fd{extent(), extent(), extent()};
    const Dim3 cd = blocks_for(fd, 2);  // the level above in the halving chain
    // A random fine window, 1 wide on one axis in every fifth case and on
    // all three in every tenth, then moved onto face t % 6 of the grid.
    const index_t n[3] = {fd.nx, fd.ny, fd.nz};
    index_t lo[3], hi[3];
    for (int a = 0; a < 3; ++a) {
      lo[a] = pick(n[a]);
      hi[a] = t % 10 == 0 || (t % 5 == 0 && a == t % 3)
                  ? lo[a] + 1
                  : lo[a] + 1 + pick(n[a] - lo[a]);
    }
    const int face = (t % 6) / 2;
    if (t % 2 == 0) {
      hi[face] -= lo[face];
      lo[face] = 0;
    } else {
      lo[face] += n[face] - hi[face];
      hi[face] = n[face];
    }
    const tiled::Box fine_box{{lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]}};

    // The coarse window is the support, or (every third case) the support
    // grown by a random margin, so its origin is not always the support's.
    const SupportBox sup = prolong_support(cd, fd, fine_box.lo, fine_box.extent());
    Coord3 wlo = sup.origin;
    Coord3 whi{sup.origin.x + sup.extent.nx, sup.origin.y + sup.extent.ny,
               sup.origin.z + sup.extent.nz};
    if (t % 3 == 0) {
      wlo = {wlo.x - pick(wlo.x + 1), wlo.y - pick(wlo.y + 1), wlo.z - pick(wlo.z + 1)};
      whi = {whi.x + pick(cd.nx - whi.x + 1), whi.y + pick(cd.ny - whi.y + 1),
             whi.z + pick(cd.nz - whi.z + 1)};
    }
    const tiled::Box coarse_box{wlo, whi};

    FieldF coarse = test::noise_field(cd, 50.0, static_cast<std::uint64_t>(t));
    FieldF residual =
        test::noise_field(fine_box.extent(), 0.5, static_cast<std::uint64_t>(1000 + t));
    const char* kind = "finite";
    switch (t % 4) {
      case 1:
        kind = "special residual";
        salt(residual, 4);
        break;
      case 2:
        kind = "special coarse";
        salt(coarse, 6);
        break;
      case 3:
        kind = "special both";
        salt(coarse, 8);
        salt(residual, 3);
        break;
      default:
        break;
    }
    const FieldF window = extract_region(coarse, coarse_box.lo, coarse_box.extent());
    SCOPED_TRACE(::testing::Message()
                 << "case " << t << " (" << kind << ") fine " << fd.str() << " box ("
                 << lo[0] << "," << lo[1] << "," << lo[2] << ")-(" << hi[0] << ","
                 << hi[1] << "," << hi[2] << ")");
    FieldF got = progressive::refine(window, coarse_box, cd, residual, fine_box, fd);
    FieldF want = prolong_then_add(window, coarse_box, cd, residual, fine_box, fd);
    // Where both addends are NaN, IEEE 754 leaves the sum's sign and payload
    // to the implementation, and compiled code keeps either operand's (the
    // separate add loop kept the residual's NaN in its SSE body and the
    // prolonged one's in its scalar tail): there both sums must be NaN.
    // Every other sample, a lone NaN addend included, matches bit for bit.
    const FieldF prolonged = prolong_trilinear_region(window, coarse_box.lo, cd, fd,
                                                      fine_box.lo, fine_box.extent());
    for (index_t i = 0; i < got.size(); ++i)
      if (std::isnan(prolonged[i]) && std::isnan(residual[i])) {
        ASSERT_TRUE(std::isnan(got[i]) && std::isnan(want[i])) << "sample " << i;
        got[i] = want[i] = 0.0f;
      }
    ASSERT_TRUE(same_bits(got, want));
  }
}

TEST(Progressive, RejectsBadConfigAndInputs) {
  const FieldF f = test::smooth_field({16, 16, 16});
  progressive::Config cfg;
  cfg.brick = 0;
  EXPECT_THROW((void)progressive::build(f, 0.1, cfg), ContractError);
  cfg.brick = 16;
  cfg.levels = progressive::kMaxLevels + 1;
  EXPECT_THROW((void)progressive::build(f, 0.1, cfg), ContractError);
  cfg.levels = 0;
  cfg.codec = "no-such-codec";
  EXPECT_THROW((void)progressive::build(f, 0.1, cfg), CodecError);
  cfg.codec = "interp";
  cfg.resid_codec = "no-such-codec";  // hits the residual levels' compress
  EXPECT_THROW((void)progressive::build(test::smooth_field({32, 32, 32}), 0.1, cfg),
               CodecError);
  EXPECT_THROW((void)progressive::build(FieldF{}, 0.1, {}), ContractError);
  EXPECT_THROW((void)progressive::build(f, 0.0, {}), ContractError);
  const Bytes stream = make_progressive(f);
  EXPECT_THROW((void)progressive::decompress_level(stream, -1), ContractError);
  EXPECT_THROW((void)progressive::decompress_level(stream, 99), ContractError);
}

// ---------------------------------------------------------------------------
// Facade integration.
// ---------------------------------------------------------------------------

TEST(Progressive, FacadeBuildInfoAndDecompress) {
  const FieldF f = test::smooth_field({40, 40, 40});
  const auto opt = api::Options::parse("codec=interp,tile=16,threads=2,eb=1e-3");
  const Bytes stream = api::build_progressive(f, opt);

  const auto meta = api::info(stream);
  EXPECT_EQ(meta.kind, api::StreamInfo::Kind::progressive);
  EXPECT_EQ(meta.codec, "lorenzo");  // the residual levels' codec
  EXPECT_EQ(meta.dims, f.dims());
  EXPECT_EQ(meta.brick, 16);
  ASSERT_EQ(meta.levels, 3u);
  ASSERT_EQ(meta.level_meta.size(), 3u);
  EXPECT_EQ(meta.level_meta[1].dims, (Dim3{20, 20, 20}));

  // api::decompress serves the finest level.
  const FieldF back = api::decompress(stream);
  EXPECT_EQ(back, progressive::decompress_level(stream, 0, 1));
}

// ---------------------------------------------------------------------------
// Serve layer: Dataset reads and the multi-frame wire protocol.
// ---------------------------------------------------------------------------

TEST(ProgressiveServe, DatasetReadsAreBitExactWithTheContainer) {
  const FieldF f = test::smooth_field({40, 40, 40});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 2);
  serve::Dataset ds(stream, {});
  ASSERT_EQ(ds.levels(), 4);  // 40 -> 20 -> 10 -> 5 at brick 8
  const Box win{{3, 0, 5}, {29, 17, 24}};
  EXPECT_EQ(ds.read_region(0, win), progressive::read_region(stream, 0, win, 1));
  EXPECT_EQ(ds.read_region(1, Box{{0, 0, 0}, {20, 20, 20}}),
            progressive::decompress_level(stream, 1, 1));

  // The layered read folds to the same bits via the shared refine step.
  const auto layers = ds.read_progressive(0, win);
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_FALSE(layers.front().residual);  // coarsest first, data not residual
  EXPECT_TRUE(layers.back().residual);
  FieldF window = layers.front().data;
  for (std::size_t i = 1; i < layers.size(); ++i)
    window = progressive::refine(window, layers[i - 1].box,
                                 layers[i - 1].level_dims, layers[i].data,
                                 layers[i].box, layers[i].level_dims);
  EXPECT_EQ(window, ds.read_region(0, win));
}

TEST(ProgressiveServe, WireReadRefinesInPlaceToTheNonProgressiveAnswer) {
  const FieldF f = test::smooth_field({40, 40, 40});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 2);
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const wire::OpenInfo info = client.open(stream, "mrcr");
  ASSERT_EQ(info.levels, 4);

  const Box box{{4, 0, 7}, {28, 19, 31}};
  const wire::ProgressiveResult res = client.read_progressive(info.id, 0, box);
  ASSERT_TRUE(res.complete());
  EXPECT_EQ(res.level, 0);
  EXPECT_TRUE(res.error.empty());
  // One frame per level of the support chain, coarse answer first.
  ASSERT_EQ(res.frames.size(), 4u);
  EXPECT_FALSE(res.frames[0].residual);
  EXPECT_EQ(res.frames[0].level, 3);
  EXPECT_TRUE(res.frames[1].residual);
  EXPECT_TRUE(res.frames[3].residual);
  EXPECT_EQ(res.frames[3].level, 0);
  // The refined window matches the one-shot read bit-exactly.
  EXPECT_EQ(res.data, client.region(info.id, 0, box));
  EXPECT_EQ(res.data, progressive::read_region(stream, 0, box, 1));

  // A read at a coarser level streams fewer frames.
  const Box cbox{{0, 0, 0}, {20, 20, 20}};
  const wire::ProgressiveResult coarse = client.read_progressive(info.id, 1, cbox);
  ASSERT_TRUE(coarse.complete());
  EXPECT_EQ(coarse.frames.size(), 3u);
  EXPECT_EQ(coarse.data, client.region(info.id, 1, cbox));
}

TEST(ProgressiveServe, ConnectionDropMidRefinementLeavesAUsableCoarseAnswer) {
  const FieldF f = test::smooth_field({40, 40, 40});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 2);
  Server srv(quiet());
  // A transport that can drop the connection after `cut` reply bytes.
  std::size_t cut = static_cast<std::size_t>(-1);
  wire::Client client([&srv, &cut](std::span<const std::byte> frame) {
    Bytes reply = srv.handle_frame(frame);
    if (cut < reply.size()) reply.resize(cut);
    return reply;
  });
  const std::uint32_t id = client.open(stream, "flaky").id;
  const Box box{{0, 0, 0}, {24, 24, 24}};

  // Frame boundaries of the full reply, from each frame's length prefix.
  const wire::ProgressiveResult full = client.read_progressive(id, 0, box);
  ASSERT_TRUE(full.complete());
  ASSERT_EQ(full.frames.size(), 4u);
  std::vector<std::size_t> bounds;  // cumulative end offset of each frame
  std::size_t end = 0;
  for (const auto& fr : full.frames) bounds.push_back(end += fr.frame_bytes);

  // Cut right after the coarse frame, then mid-refinement-frame: both keep
  // the refined-so-far window with a typed truncation status — no throw.
  for (const std::size_t c : {bounds[0], bounds[0] + 3, bounds[1] + 7}) {
    cut = c;
    const wire::ProgressiveResult res = client.read_progressive(id, 0, box);
    EXPECT_EQ(res.status, wire::ProgressiveResult::Status::truncated) << c;
    EXPECT_FALSE(res.error.empty()) << c;
    EXPECT_GT(res.level, 0) << c;  // never reached the requested level
    const std::size_t applied = c >= bounds[1] ? 2u : 1u;
    ASSERT_EQ(res.frames.size(), applied) << c;
    // The kept window is the honest partial answer: exactly the bits the
    // full read held after the same number of frames.
    ASSERT_EQ(res.level, full.frames[applied - 1].level) << c;
    const FieldF direct = progressive::read_region(
        stream, res.level, res.box, 1);
    EXPECT_EQ(res.data, direct) << c;
  }

  // A drop before any complete frame leaves nothing usable: typed throw.
  cut = 2;
  EXPECT_THROW((void)client.read_progressive(id, 0, box), CodecError);
  cut = 0;
  EXPECT_THROW((void)client.read_progressive(id, 0, box), CodecError);
  cut = static_cast<std::size_t>(-1);

  // A server error frame appended mid-stream degrades the same way.
  wire::Client errclient([&srv](std::span<const std::byte> frame) {
    Bytes reply = srv.handle_frame(frame);
    const Bytes err =
        wire::make_error(ServerError::Code::overloaded, "synthetic drop",
                         static_cast<std::uint8_t>(wire::Type::progressive));
    std::uint32_t len = 0;
    std::memcpy(&len, reply.data(), sizeof(len));
    reply.resize(sizeof(len) + len);  // keep only the coarse frame...
    reply.insert(reply.end(), err.begin(), err.end());  // ...then the error
    return reply;
  });
  const wire::ProgressiveResult res = errclient.read_progressive(id, 0, box);
  EXPECT_EQ(res.status, wire::ProgressiveResult::Status::frame_error);
  EXPECT_NE(res.error.find("synthetic drop"), std::string::npos);
  ASSERT_EQ(res.frames.size(), 1u);
  EXPECT_FALSE(res.frames[0].residual);
}

TEST(ProgressiveServe, TracedReadStitchesAllFramesIntoOneSpanTree) {
  obs::set_enabled(true);
  obs::reset_trace();
  obs::FlightRecorder::global().reset();

  const FieldF f = test::smooth_field({40, 40, 40});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 2);
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const std::uint32_t id = client.open(stream).id;

  const std::uint64_t trace = 0x9e9e;
  client.set_trace(trace);
  const wire::ProgressiveResult res =
      client.read_progressive(id, 0, Box{{0, 0, 0}, {16, 16, 16}});
  client.set_trace(0);
  ASSERT_TRUE(res.complete());
  srv.wait_idle();

  // One request: exactly one serve.request span, with the progressive read
  // and the wire codec stitched under the same trace id.
  int serve_requests = 0;
  bool progressive_read = false, wire_encode = false;
  for (const auto& e : obs::spans_for(trace)) {
    const std::string_view n(e.name);
    serve_requests += n == "serve.request" ? 1 : 0;
    progressive_read = progressive_read || n == "serve.read_progressive";
    wire_encode = wire_encode || n == "wire.encode";
  }
  EXPECT_EQ(serve_requests, 1);
  EXPECT_TRUE(progressive_read);
  EXPECT_TRUE(wire_encode);
  EXPECT_EQ(obs::span_tree_text(trace).rfind("serve.request", 0), 0u);

  // The flight recorder holds one record for the whole multi-frame reply.
  int records = 0;
  for (const auto& rec : obs::FlightRecorder::global().snapshot())
    if (rec.trace == trace) {
      ++records;
      EXPECT_EQ(rec.frame_type, static_cast<std::uint8_t>(wire::Type::progressive));
      EXPECT_EQ(rec.outcome, 0);
    }
  EXPECT_EQ(records, 1);

  obs::reset_trace();
  obs::FlightRecorder::global().reset();
  obs::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Corrupt / truncated streams: clean CodecError, never OOB.
// ---------------------------------------------------------------------------

TEST(ProgressiveRobustness, TruncationAtEveryStageRejected) {
  const FieldF f = test::smooth_field({24, 24, 24});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 16, 1);
  const auto idx = progressive::read_index(stream);
  for (const std::size_t len :
       {std::size_t{5}, std::size_t{20}, idx.payload_offset / 2, idx.payload_offset,
        stream.size() - 1}) {
    const auto cut = std::span(stream).first(len);
    EXPECT_THROW((void)progressive::read_geometry(cut), CodecError) << len;
    EXPECT_THROW((void)progressive::decompress_level(cut, 0), CodecError) << len;
    EXPECT_THROW((void)api::decompress(cut), CodecError) << len;
  }
}

TEST(ProgressiveRobustness, OffChainOrOverlappingLevelRecordsRejected) {
  const FieldF f = test::smooth_field({24, 24, 24});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 1);  // 3 levels

  // Level extents off the halving chain.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.levels[1].dims.nx += 1; })),
               CodecError);
  // Overlapping level streams (offset pulled back into the previous level).
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.levels[1].offset -= 4; })),
               CodecError);
  // A gap between level streams.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.levels[1].offset += 4; })),
               CodecError);
  // Zero-length level.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.levels[2].length = 0; })),
               CodecError);
  // Length past the payload.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream,
                   [](progressive::Index& i) { i.levels[2].length += 1000; })),
               CodecError);
  // Level streams not tiling the payload exactly.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.payload_bytes += 64; })),
               CodecError);
  // Dropping the last level leaves untiled payload bytes.
  EXPECT_THROW((void)progressive::read_geometry(corrupt(
                   stream, [](progressive::Index& i) { i.levels.pop_back(); })),
               CodecError);
}

TEST(ProgressiveRobustness, NestedCodecDisagreementRejected) {
  // Splice a residual level compressed under a different codec into an
  // otherwise valid stream: dims and eb still agree, only the codec check
  // can catch the mismatch.
  const FieldF f = test::smooth_field({24, 24, 24});
  const Bytes host = make_progressive(f, "interp", "lorenzo", 8, 1);  // 3 levels
  const Bytes donor = make_progressive(f, "interp", "interp", 8, 1);
  const progressive::Index hidx = progressive::read_index(host);
  const progressive::Index didx = progressive::read_index(donor);
  ASSERT_EQ(hidx.levels.size(), didx.levels.size());

  // Payload: host level 0, DONOR level 1 (interp residual), host level 2.
  const auto hpay = std::span(host).subspan(hidx.payload_offset);
  const auto donor_l1 = donor.data() + didx.payload_offset + didx.levels[1].offset;
  Bytes body;
  body.insert(body.end(), hpay.begin(),
              hpay.begin() + static_cast<std::ptrdiff_t>(hidx.levels[0].length));
  body.insert(body.end(), reinterpret_cast<const Bytes::value_type*>(donor_l1),
              reinterpret_cast<const Bytes::value_type*>(donor_l1) +
                  didx.levels[1].length);
  body.insert(body.end(),
              hpay.begin() + static_cast<std::ptrdiff_t>(hidx.levels[2].offset),
              hpay.end());
  progressive::Index spliced = hidx;
  spliced.levels[1].length = didx.levels[1].length;
  spliced.levels[2].offset = spliced.levels[1].offset + spliced.levels[1].length;
  spliced.payload_bytes = spliced.levels[2].offset + spliced.levels[2].length;
  const Bytes evil = rebuild(spliced, body);
  // The geometry peek (level 0 + coarsest) still passes; the full nested
  // validation must reject the foreign codec.
  (void)progressive::read_geometry(evil);
  EXPECT_THROW((void)progressive::read_index(evil), CodecError);
}

TEST(ProgressiveRobustness, HostileLevelCountRejectedBeforeAllocation) {
  for (const std::uint64_t n_levels :
       {std::uint64_t{0}, std::uint64_t{41}, std::uint64_t{1} << 40}) {
    Bytes evil;
    ByteWriter w(evil);
    detail::write_header(w, progressive::kProgressiveMagic, {1024, 1024, 1024}, 1.0);
    w.put_varint(n_levels);
    w.put_varint(0);  // payload_bytes
    EXPECT_THROW((void)progressive::read_geometry(evil), CodecError) << n_levels;
    EXPECT_THROW((void)api::decompress(evil), CodecError) << n_levels;
  }
  // A plausible level count whose records cannot fit in the bytes we hold.
  Bytes short_table;
  ByteWriter w(short_table);
  detail::write_header(w, progressive::kProgressiveMagic, {1024, 1024, 1024}, 1.0);
  w.put_varint(11);
  w.put_varint(0);
  EXPECT_THROW((void)progressive::read_geometry(short_table), CodecError);
}

TEST(ProgressiveRobustness, EveryTableByteFlipFailsCleanlyOrDecodes) {
  // Exhaustive single-byte corruption of the header + level table: each
  // mutant must either decode level 0 to the right extents (flips in
  // advisory fields like ranges/entropy/bounds) or throw CodecError —
  // anything else (crash, OOB, wrong dims) is a bug. ASan/TSan in ci.sh
  // turn latent OOB reads into hard failures here.
  const FieldF f = test::smooth_field({20, 20, 20});
  const Bytes stream = make_progressive(f, "interp", "lorenzo", 8, 1);
  const std::size_t table_end = progressive::read_index(stream).payload_offset;
  for (std::size_t pos = 0; pos < table_end; ++pos) {
    Bytes bad = stream;
    bad[pos] ^= std::byte{0x2d};
    try {
      const FieldF out = progressive::decompress_level(bad, 0, 1);
      EXPECT_EQ(out.dims(), f.dims()) << "byte " << pos;
    } catch (const CodecError&) {
      // clean rejection
    }
  }
}

// ---------------------------------------------------------------------------
// Residual codecs: lorenzo, quantize and the per-stream "auto" choice.
// ---------------------------------------------------------------------------

bool same_window(const FieldF& full, const Box& box, const FieldF& w) {
  const Dim3 e = box.extent();
  if (!(w.dims() == e)) return false;
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      if (std::memcmp(&w.at(0, y, z), &full.at(box.lo.x, box.lo.y + y, box.lo.z + z),
                      static_cast<std::size_t>(e.nx) * sizeof(float)) != 0)
        return false;
  return true;
}

TEST(ProgressiveProperty, ResidualCodecsMeetTheBoundOnEveryReadPath) {
  // Seeded cases over residual codec x extents (prime and 1-wide) x brick x
  // level count x bound x field. Every level decodes within the bound (plus
  // the float rounding of the value itself); region reads and the serve
  // layer's progressive fold reproduce decompress_level's window bit for
  // bit; the build's bytes do not depend on its lane count.
  Rng rng(2121);
  constexpr std::array<index_t, 9> kPrimeOrUnit{1, 2, 3, 5, 7, 11, 13, 17, 23};
  const std::array<std::string, 3> kResid{"lorenzo", "quantize", "auto"};
  const auto names = registry().names();
  auto extent = [&] {
    return rng.uniform_index(3) == 0 ? 1 + static_cast<index_t>(rng.uniform_index(24))
                                     : kPrimeOrUnit[rng.uniform_index(kPrimeOrUnit.size())];
  };
  auto pick = [&](index_t n) { return static_cast<index_t>(rng.uniform_index(n)); };
  std::unordered_map<std::string, int> chosen;
  for (int c = 0; c < 102; ++c) {
    const Dim3 d{extent(), extent(), extent()};
    progressive::Config cfg;
    cfg.resid_codec = kResid[static_cast<std::size_t>(c) % kResid.size()];
    cfg.codec = names[rng.uniform_index(names.size())];
    cfg.brick = 4 + pick(13);
    cfg.levels = 2 + static_cast<int>(rng.uniform_index(3));
    cfg.threads = 1;
    const int field = static_cast<int>(rng.uniform_index(3));
    FieldF f = test::smooth_field(d, 50.0);
    Rng noise(static_cast<std::uint64_t>(c) + 1);
    for (index_t i = 0; i < f.size(); ++i) {
      const double n = noise.normal(0.0, 20.0);
      if (field == 1) f[i] = static_cast<float>(n);
      if (field == 2 && i % 3 == 0) f[i] += static_cast<float>(n);
    }
    const double range = std::max(1e-3, static_cast<double>(f.value_range()));
    const double eb = range * std::pow(10.0, -rng.uniform(1.0, 5.0));
    SCOPED_TRACE(::testing::Message()
                 << "case " << c << " " << d.str() << " resid " << cfg.resid_codec
                 << " data " << cfg.codec << " brick " << cfg.brick << " levels "
                 << cfg.levels << " field " << field << " eb " << eb);

    const Bytes stream = progressive::build(f, eb, cfg);
    cfg.threads = 4;
    ASSERT_EQ(progressive::build(f, eb, cfg), stream);
    const auto idx = progressive::read_index(stream);
    ASSERT_EQ(idx.levels.size(), static_cast<std::size_t>(cfg.levels));
    if (cfg.resid_codec == "auto") {
      ++chosen[idx.codec];
    } else {
      EXPECT_EQ(idx.codec, cfg.resid_codec);
    }

    serve::Dataset ds(stream, {.cache_bytes = 1u << 20, .threads = 1, .prefetch = false});
    FieldF level_data = f;
    for (int l = 0; l < cfg.levels; ++l) {
      SCOPED_TRACE(::testing::Message() << "level " << l);
      if (l > 0) level_data = restrict_half(level_data);
      const FieldF full = progressive::decompress_level(stream, l, 1);
      ASSERT_EQ(full.dims(), level_data.dims());
      const auto [lo, hi] = level_data.min_max();
      const double slack = std::numeric_limits<float>::epsilon() *
                           std::max(std::abs(static_cast<double>(lo)),
                                    std::abs(static_cast<double>(hi)));
      EXPECT_LE(test::max_abs_err(level_data, full), eb + slack);

      const Dim3 ld = full.dims();
      const Coord3 a{pick(ld.nx), pick(ld.ny), pick(ld.nz)};
      const Box box{a, {a.x + 1 + pick(ld.nx - a.x), a.y + 1 + pick(ld.ny - a.y),
                        a.z + 1 + pick(ld.nz - a.z)}};
      EXPECT_TRUE(same_window(full, box, progressive::read_region(stream, l, box, 1)));
      const auto layers = ds.read_progressive(l, box);
      ASSERT_EQ(layers.size(), static_cast<std::size_t>(cfg.levels - l));
      FieldF window = layers.front().data;
      for (std::size_t i = 1; i < layers.size(); ++i)
        window = progressive::refine(window, layers[i - 1].box, layers[i - 1].level_dims,
                                     layers[i].data, layers[i].box, layers[i].level_dims);
      EXPECT_TRUE(same_window(full, box, window));
    }
  }
  // The seeded fields reach both outcomes of the choice.
  EXPECT_GT(chosen["lorenzo"], 0);
  EXPECT_GT(chosen["quantize"], 0);
}

TEST(Progressive, AutoResidualCodecFollowsTheField) {
  // api::Options asks for "auto": white noise has nothing for a predictor
  // to find, a sine field is what Lorenzo predicts well, and a constant
  // field's zero residual ties at zero bits, which goes to quantize.
  const auto opt = api::Options::parse("codec=interp,tile=16,threads=2,eb=1e-3");
  const Dim3 d{40, 40, 40};
  EXPECT_EQ(api::info(api::build_progressive(test::noise_field(d, 5.0), opt)).codec,
            "quantize");
  EXPECT_EQ(api::info(api::build_progressive(test::smooth_field(d), opt)).codec, "lorenzo");
  const auto abs_opt = api::Options::parse("codec=interp,tile=16,threads=2,eb=1e-3,eb_mode=abs");
  EXPECT_EQ(api::info(api::build_progressive(FieldF(d, 7.5f), abs_opt)).codec, "quantize");
}

TEST(Progressive, AutoChoiceIsLaneInvariantWithNonFiniteSamples) {
  // Non-finite residuals share the estimate's escape bin, and a residual
  // range too wide for the dense histogram takes the map path: neither may
  // make the choice, or the bytes, depend on the lane count.
  FieldF f = test::noise_field({23, 17, 29}, 5.0, 3);
  f[100] = std::numeric_limits<float>::quiet_NaN();
  f[2000] = std::numeric_limits<float>::infinity();
  f[5000] = -std::numeric_limits<float>::infinity();
  FieldF wide = test::noise_field({23, 17, 29}, 5.0, 4);
  wide[777] = 1e9f;
  for (const FieldF* field : {&f, &wide}) {
    progressive::Config cfg;
    cfg.resid_codec = "auto";
    cfg.brick = 8;
    cfg.levels = 3;
    cfg.threads = 1;
    const Bytes one = progressive::build(*field, 1e-3, cfg);
    cfg.threads = 4;
    EXPECT_EQ(progressive::build(*field, 1e-3, cfg), one);
    EXPECT_EQ(progressive::decompress_level(one, 0, 2).dims(), field->dims());
  }
}

}  // namespace
}  // namespace mrc
