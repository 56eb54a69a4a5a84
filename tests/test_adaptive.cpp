// Adaptive multi-resolution container (MRCA): importance-map builders,
// round trips (level-0 bit-exactness against the tiled container, coarse
// reconstruction against the public restriction/prolongation primitives),
// seam consistency across arbitrary query boxes, error-bound tracking,
// index validation + exhaustive single-byte-flip corruption, the cached
// serving path, the renderer overload, and the api facade wiring.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "adaptive/adaptive.h"
#include "api/mrc_api.h"
#include "grid/field_ops.h"
#include "io/raw_io.h"
#include "merge/padding.h"
#include "render/volume_renderer.h"
#include "serve/dataset.h"
#include "test_util.h"

namespace mrc::adaptive {
namespace {

/// Smooth background + one sharp blob: the blob's bricks rank as important
/// under every importance source.
FieldF blob_field(Dim3 d, double amp = 300.0) {
  FieldF f = test::smooth_field(d, 10.0);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const double r2 = (x - d.nx / 3.0) * (x - d.nx / 3.0) +
                          (y - d.ny / 2.0) * (y - d.ny / 2.0) +
                          (z - d.nz / 3.0) * (z - d.nz / 3.0);
        f.at(x, y, z) += static_cast<float>(amp * std::exp(-r2 / 18.0));
      }
  return f;
}

/// Deterministic mixed assignment: levels 0, 1, 2 cycling over the bricks.
LevelMap mixed_map(Dim3 dims, index_t brick) {
  LevelMap map = uniform_map(dims, brick, 0);
  for (index_t tz = 0; tz < map.grid.nz; ++tz)
    for (index_t ty = 0; ty < map.grid.ny; ++ty)
      for (index_t tx = 0; tx < map.grid.nx; ++tx)
        map.level[static_cast<std::size_t>(tx + map.grid.nx * (ty + map.grid.ny * tz))] =
            static_cast<std::uint8_t>((tx + ty + tz) % 3);
  return map;
}

Config small_cfg(index_t brick = 16) {
  Config cfg;
  cfg.brick = brick;
  cfg.threads = 1;
  return cfg;
}

}  // namespace

TEST(AdaptiveMap, MaxLevelTracksBrickEdge) {
  EXPECT_EQ(max_level(1), 0);
  EXPECT_EQ(max_level(2), 1);
  EXPECT_EQ(max_level(16), 4);
  EXPECT_EQ(max_level(64), 6);
}

TEST(AdaptiveMap, UniformMapAndLevelCount) {
  const LevelMap m = uniform_map({33, 17, 9}, 16, 2);
  EXPECT_EQ(m.grid, (Dim3{3, 2, 1}));
  EXPECT_EQ(m.level.size(), 6u);
  EXPECT_EQ(m.n_levels(), 3);
  for (const auto l : m.level) EXPECT_EQ(l, 2);
  EXPECT_THROW((void)uniform_map({32, 32, 32}, 16, max_level(16) + 1), ContractError);
}

TEST(AdaptiveMap, BoxesPinIntersectingBricks) {
  const tiled::Box roi{{14, 0, 0}, {20, 8, 8}};  // straddles bricks 0 and 1 in x
  const LevelMap m = map_from_boxes({48, 16, 16}, 16, {&roi, 1}, 2);
  EXPECT_EQ(m.level[0], 0);
  EXPECT_EQ(m.level[1], 0);
  EXPECT_EQ(m.level[2], 2);
  const tiled::Box outside{{0, 0, 0}, {64, 8, 8}};
  EXPECT_THROW((void)map_from_boxes({48, 16, 16}, 16, {&outside, 1}, 2), ContractError);
}

TEST(AdaptiveMap, GradientKeepsTheStep) {
  // Step at x = 24: only the two brick columns touching it see gradient.
  const FieldF f = test::step_field({48, 16, 16});
  const LevelMap m = map_from_gradient(f, 16, /*keep_fraction=*/0.4, 3);
  EXPECT_EQ(m.level[1], 0);             // contains the step face
  EXPECT_EQ(m.level[0], 3);             // flat
  EXPECT_EQ(m.level[2], 3);             // flat
}

TEST(AdaptiveMap, HalosPinTheBlobWithMargin) {
  const Dim3 d{64, 64, 64};
  const FieldF f = blob_field(d);
  const LevelMap m = map_from_halos(f, 16, /*threshold=*/150.0f, /*min_cells=*/8, 2);
  // Blob center near (21, 32, 21) -> brick (1, 2, 1) fine, plus a one-brick
  // margin; far corner stays coarse.
  const Dim3 g = m.grid;
  EXPECT_EQ(m.level[static_cast<std::size_t>(1 + g.nx * (2 + g.ny * 1))], 0);
  EXPECT_EQ(m.level[static_cast<std::size_t>(2 + g.nx * (3 + g.ny * 2))], 0);  // margin
  EXPECT_EQ(m.level[static_cast<std::size_t>(3 + g.nx * (0 + g.ny * 3))], 2);
  EXPECT_EQ(m.n_levels(), 3);
}

TEST(AdaptiveMap, MaskValidation) {
  MaskField wrong({8, 8, 8}, 0);
  EXPECT_THROW((void)map_from_mask({16, 16, 16}, 8, wrong, 1), ContractError);
  MaskField mask({16, 16, 16}, 0);
  mask.at(0, 0, 0) = 1;
  const LevelMap m = map_from_mask({16, 16, 16}, 8, mask, 1);
  EXPECT_EQ(m.level[0], 0);
  EXPECT_EQ(m.level[7], 1);
  const LevelMap dilated = map_from_mask({16, 16, 16}, 8, mask, 1, /*dilate=*/1);
  for (const auto l : dilated.level) EXPECT_EQ(l, 0);  // 2^3 grid, all adjacent
}

TEST(Adaptive, GeometryAndIndexRoundTrip) {
  const FieldF f = blob_field({48, 40, 33});
  const Bytes stream = compress(f, 0.05, mixed_map(f.dims(), 16), small_cfg());

  const Index geo = read_geometry(stream);
  EXPECT_EQ(geo.dims, f.dims());
  EXPECT_EQ(geo.brick, 16);
  EXPECT_EQ(geo.overlap, kOverlap);
  EXPECT_EQ(geo.codec, "interp");
  EXPECT_EQ(geo.grid, (Dim3{3, 3, 3}));
  EXPECT_EQ(geo.n_levels, 3);
  EXPECT_TRUE(geo.bricks.empty());

  const Index idx = read_index(stream);
  ASSERT_EQ(idx.bricks.size(), 27u);
  for (std::size_t t = 0; t < idx.bricks.size(); ++t) {
    const BrickEntry& e = idx.bricks[t];
    EXPECT_EQ(e.stored, brick_stored_extent(idx.dims, e.origin, idx.brick, e.level));
    EXPECT_GE(e.approx_err, 0.05f);
    EXPECT_LE(e.vmin, e.vmax);
  }
  const auto hist = level_histogram(idx);
  const auto bytes = level_bytes(idx);
  EXPECT_EQ(hist.size(), 3u);
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), std::size_t{0}), 27u);
  EXPECT_EQ(std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0}),
            idx.payload_bytes);
}

TEST(Adaptive, AllLevelZeroDecodesBitIdenticalToTiled) {
  const FieldF f = blob_field({40, 33, 25});
  const double eb = 1e-3;
  tiled::Config tc;
  tc.brick = 16;
  const Bytes tstream = tiled::compress(f, eb, tc);
  const Bytes astream = compress(f, eb, uniform_map(f.dims(), 16, 0), small_cfg());
  EXPECT_EQ(decompress(astream), tiled::decompress(tstream));
}

TEST(Adaptive, LevelZeroBricksBitIdenticalInMixedStream) {
  const FieldF f = blob_field({48, 48, 16});
  const double eb = 1e-3;
  tiled::Config tc;
  tc.brick = 16;
  const FieldF uniform = tiled::decompress(tiled::compress(f, eb, tc));

  const LevelMap map = mixed_map(f.dims(), 16);
  const Bytes stream = compress(f, eb, map, small_cfg());
  const Index idx = read_index(stream);
  const FieldF full = decompress(stream);
  for (std::size_t t = 0; t < idx.bricks.size(); ++t) {
    if (idx.bricks[t].level != 0) continue;
    const Coord3 o = idx.origin(t);
    const Dim3 core = idx.core_extent(t);
    for (index_t z = 0; z < core.nz; ++z)
      for (index_t y = 0; y < core.ny; ++y)
        for (index_t x = 0; x < core.nx; ++x)
          ASSERT_EQ(full.at(o.x + x, o.y + y, o.z + z),
                    uniform.at(o.x + x, o.y + y, o.z + z))
              << "brick " << t;
  }
}

TEST(Adaptive, SingleCoarseBrickMatchesPublicPrimitives) {
  // One-brick domain at level 1: the reconstruction must be exactly
  // prolong(codec_roundtrip(restrict_half(pad_to_even(f)))) — the documented
  // spec, assembled here from the public pieces.
  for (const Dim3 d : {Dim3{16, 16, 16}, Dim3{15, 13, 9}}) {
    const FieldF f = test::smooth_field(d);
    const double eb = 1e-3;
    Config cfg = small_cfg(std::max({d.nx, d.ny, d.nz}));
    const Bytes stream = compress(f, eb, uniform_map(d, cfg.brick, 1), cfg);

    const FieldF coarse = restrict_half(pad_to_even(f, PadKind::linear));
    const auto codec = registry().make("interp");
    const FieldF decoded = codec->decompress(codec->compress(coarse, eb));
    const FieldF expect = prolong_trilinear(decoded, d);
    EXPECT_EQ(decompress(stream), expect) << d.str();
  }
}

TEST(Adaptive, BoundaryEqualsBlendedProlongation) {
  // Two bricks along x: fine brick [0,16), coarse brick [16,32) at level 1.
  // On the coarse side of the seam (x = 16), the reconstruction must be the
  // mean of the coarse brick's prolongation and the fine brick's overlap.
  const Dim3 d{32, 16, 16};
  const FieldF f = blob_field(d);
  const double eb = 1e-3;
  LevelMap map = uniform_map(d, 16, 0);
  map.level[1] = 1;
  const Bytes stream = compress(f, eb, map, small_cfg());
  const FieldF full = decompress(stream);

  const auto codec = registry().make("interp");
  // Fine brick stores [0, 17) x [0,16) x [0,16).
  const FieldF b0 = extract_region(f, {0, 0, 0}, {17, 16, 16});
  const FieldF b0_dec = codec->decompress(codec->compress(b0, eb));
  // Coarse brick stores [16, 32) (+2-fine-sample overlap clipped away).
  const FieldF b1 = extract_region(f, {16, 0, 0}, {16, 16, 16});
  const FieldF b1_coarse = restrict_half(pad_to_even(b1, PadKind::linear));
  const FieldF b1_dec = codec->decompress(codec->compress(b1_coarse, eb));
  const FieldF b1_rec = prolong_trilinear(b1_dec, {16, 16, 16});

  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y) {
      const auto blended = static_cast<float>(
          (static_cast<double>(b1_rec.at(0, y, z)) +
           static_cast<double>(b0_dec.at(16, y, z))) /
          2);
      ASSERT_EQ(full.at(16, y, z), blended) << y << "," << z;
      // One sample past the overlap the owner is alone again.
      ASSERT_EQ(full.at(17, y, z), b1_rec.at(1, y, z));
    }
}

TEST(Adaptive, ReadRegionSeamConsistentForAnyQueryBox) {
  const Dim3 d{48, 40, 33};
  const FieldF f = blob_field(d);
  const Bytes stream = compress(f, 1e-3, mixed_map(d, 16), small_cfg());
  const FieldF full = decompress(stream);
  ASSERT_EQ(full.dims(), d);

  Rng rng(123);
  std::vector<tiled::Box> boxes = {
      {{0, 0, 0}, {d.nx, d.ny, d.nz}},
      {{15, 15, 15}, {17, 17, 17}},  // straddles a brick corner
      {{16, 0, 0}, {17, 40, 33}},    // exactly the seam layer
      {{31, 31, 31}, {32, 32, 32}},  // single sample
  };
  for (int i = 0; i < 12; ++i) {
    Coord3 lo{static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nx - 1))),
              static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.ny - 1))),
              static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nz - 1)))};
    Coord3 hi{lo.x + 1 + static_cast<index_t>(
                             rng.uniform_index(static_cast<std::uint64_t>(d.nx - lo.x))),
              lo.y + 1 + static_cast<index_t>(
                             rng.uniform_index(static_cast<std::uint64_t>(d.ny - lo.y))),
              lo.z + 1 + static_cast<index_t>(
                             rng.uniform_index(static_cast<std::uint64_t>(d.nz - lo.z)))};
    hi = {std::min(hi.x, d.nx), std::min(hi.y, d.ny), std::min(hi.z, d.nz)};
    boxes.push_back({lo, hi});
  }
  for (const auto& box : boxes) {
    const tiled::RegionRead rr = adaptive::read_region(stream, box, /*threads=*/2);
    EXPECT_EQ(rr.tiles_total, 27u);
    const FieldF expect = extract_region(full, box.lo, box.extent());
    ASSERT_EQ(rr.data, expect) << box.lo.x << "," << box.lo.y << "," << box.lo.z;
  }
}

TEST(Adaptive, RegionDecodesOnlyNeededBricks) {
  const Dim3 d{48, 16, 16};
  const FieldF f = blob_field(d);
  LevelMap map = uniform_map(d, 16, 0);
  map.level[2] = 1;  // only the last x-brick is coarse
  const Bytes stream = compress(f, 1e-3, map, small_cfg());
  // A box inside the fine brick 0: just that brick.
  EXPECT_EQ(adaptive::read_region(stream, {{2, 2, 2}, {10, 10, 10}}, 1).tiles_decoded, 1u);
  // A box inside the coarse brick 2 blends with its low-x neighbor.
  EXPECT_EQ(adaptive::read_region(stream, {{34, 2, 2}, {44, 10, 10}}, 1).tiles_decoded, 2u);
}

TEST(Adaptive, BlendedErrorStaysWithinWorstApproxErr) {
  const Dim3 d{48, 40, 33};
  const FieldF f = blob_field(d);
  const Bytes stream = compress(f, 1e-3, mixed_map(d, 16), small_cfg());
  const Index idx = read_index(stream);
  float worst = 0.0f;
  for (const BrickEntry& e : idx.bricks) worst = std::max(worst, e.approx_err);
  const FieldF full = decompress(stream);
  EXPECT_LE(test::max_abs_err(f, full), static_cast<double>(worst) * (1.0 + 1e-5));
  // And the fine bricks alone honor the codec bound.
  for (std::size_t t = 0; t < idx.bricks.size(); ++t) {
    if (idx.bricks[t].level != 0) continue;
    const Coord3 o = idx.origin(t);
    const Dim3 core = idx.core_extent(t);
    EXPECT_LE(test::max_abs_err(extract_region(f, o, core),
                                extract_region(full, o, core)),
              1e-3 * 1.0001);
  }
}

TEST(Adaptive, StreamBytesIdenticalForAnyThreadCount) {
  const FieldF f = blob_field({40, 33, 25});
  const LevelMap map = mixed_map(f.dims(), 16);
  Config c1 = small_cfg(), c4 = small_cfg(), c0 = small_cfg();
  c4.threads = 4;
  c0.threads = 0;
  const Bytes s1 = compress(f, 1e-3, map, c1);
  EXPECT_EQ(s1, compress(f, 1e-3, map, c4));
  EXPECT_EQ(s1, compress(f, 1e-3, map, c0));
}

TEST(Adaptive, RejectsBadConfigAndInputs) {
  const FieldF f = test::smooth_field({16, 16, 16});
  const LevelMap map = uniform_map(f.dims(), 16, 0);
  EXPECT_THROW((void)compress(FieldF{}, 1e-3, map, small_cfg()), ContractError);
  EXPECT_THROW((void)compress(f, 0.0, map, small_cfg()), ContractError);
  LevelMap wrong = uniform_map({32, 32, 32}, 16, 0);
  EXPECT_THROW((void)compress(f, 1e-3, wrong, small_cfg()), ContractError);
  LevelMap deep = map;
  deep.level[0] = static_cast<std::uint8_t>(max_level(16) + 1);
  EXPECT_THROW((void)compress(f, 1e-3, deep, small_cfg()), ContractError);
  const Bytes stream = compress(f, 1e-3, map, small_cfg());
  EXPECT_THROW((void)read_region(stream, {{0, 0, 0}, {0, 4, 4}}, 1), ContractError);
  EXPECT_THROW((void)read_region(stream, {{0, 0, 0}, {17, 4, 4}}, 1), ContractError);
}

TEST(AdaptiveRobustness, TruncationAtEveryStageRejected) {
  const FieldF f = test::smooth_field({20, 20, 20});
  const Bytes stream = compress(f, 1e-2, mixed_map(f.dims(), 8), small_cfg(8));
  const std::size_t table_end = read_index(stream).payload_offset;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, table_end / 2, table_end,
        stream.size() - 1}) {
    const Bytes cut(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)read_index(cut), CodecError) << "kept " << keep;
  }
}

TEST(AdaptiveRobustness, ForeignMagicRejected) {
  const FieldF f = test::smooth_field({16, 16, 16});
  tiled::Config tc;
  tc.brick = 16;
  const Bytes tstream = tiled::compress(f, 1e-3, tc);
  EXPECT_THROW((void)read_geometry(tstream), CodecError);
}

TEST(AdaptiveRobustness, EveryIndexByteFlipFailsCleanlyOrDecodes) {
  // Exhaustive single-byte corruption of the header + brick index: each
  // mutant must either decode to the right extents (flips in advisory
  // fields like min/max/approx_err) or throw CodecError — anything else
  // (crash, OOB, over-allocation from an unvalidated claim) is a bug.
  // ASan/TSan in ci.sh turn latent OOB into hard failures here.
  const FieldF f = test::smooth_field({20, 20, 20});
  const Bytes stream = compress(f, 1e-2, mixed_map(f.dims(), 8), small_cfg(8));
  const std::size_t table_end = read_index(stream).payload_offset;
  for (std::size_t pos = 0; pos < table_end; ++pos) {
    Bytes bad = stream;
    bad[pos] ^= std::byte{0x2d};
    try {
      const FieldF out = decompress(bad, 1);
      EXPECT_EQ(out.dims(), f.dims()) << "byte " << pos;
    } catch (const CodecError&) {
      // clean rejection
    }
  }
}

// -- cached serving (runs under the TSan Serve* filter) ----------------------

TEST(ServeAdaptive, DatasetBitIdenticalToDirectReads) {
  const Dim3 d{48, 40, 33};
  const FieldF f = blob_field(d);
  const Bytes stream = compress(f, 1e-3, mixed_map(d, 16), small_cfg());
  const FieldF full = decompress(stream);

  serve::Config sc;
  sc.threads = 4;
  serve::Dataset ds(Bytes(stream), sc);
  EXPECT_EQ(ds.kind(), serve::Dataset::Kind::adaptive);
  EXPECT_EQ(ds.levels(), 1);
  EXPECT_EQ(ds.dims(0), d);
  EXPECT_EQ(ds.adaptive_index().grid, (Dim3{3, 3, 3}));

  const std::vector<tiled::Box> boxes = {
      {{0, 0, 0}, {d.nx, d.ny, d.nz}},
      {{10, 10, 10}, {30, 30, 30}},
      {{16, 0, 0}, {17, 40, 33}},
  };
  for (int pass = 0; pass < 2; ++pass)  // second pass is served from cache
    for (const auto& box : boxes)
      ASSERT_EQ(ds.read_region(0, box), extract_region(full, box.lo, box.extent()));
  ds.wait_idle();
  const auto st = ds.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

TEST(ServeAdaptive, ConcurrentReadsStayExact) {
  const Dim3 d{48, 40, 33};
  const FieldF f = blob_field(d);
  const Bytes stream = compress(f, 1e-3, mixed_map(d, 16), small_cfg());
  const FieldF full = decompress(stream);

  serve::Config sc;
  sc.threads = 4;
  sc.cache_bytes = 64 << 10;  // tiny: constant eviction pressure
  serve::Dataset ds(Bytes(stream), sc);

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w)
    workers.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < 10; ++i) {
        const index_t x = static_cast<index_t>(rng.uniform_index(32));
        const index_t y = static_cast<index_t>(rng.uniform_index(24));
        const tiled::Box box{{x, y, 0}, {x + 16, y + 16, d.nz}};
        if (ds.read_region(0, box) != extract_region(full, box.lo, box.extent()))
          failures.fetch_add(1);
      }
    });
  for (auto& t : workers) t.join();
  ds.wait_idle();
  EXPECT_EQ(failures.load(), 0);
  const auto st = ds.stats();
  EXPECT_EQ(st.entries == 0, st.bytes == 0);
}

TEST(ServeAdaptive, RendererMatchesDirectDecompress) {
  const Dim3 d{40, 33, 25};
  const FieldF f = blob_field(d);
  const Bytes stream = compress(f, 1e-3, mixed_map(d, 16), small_cfg());
  const FieldF full = decompress(stream);
  const auto tf = render::auto_transfer(full);

  serve::Dataset ds = api::open_dataset(Bytes(stream));
  const render::Image a = render::volume_render(ds, tf);
  const render::Image b = render::volume_render(full, tf);
  ASSERT_EQ(a.pixels.size(), b.pixels.size());
  EXPECT_EQ(a.pixels, b.pixels);
}

// -- api facade --------------------------------------------------------------

TEST(AdaptiveApi, OptionsParseAndRoundTrip) {
  const auto opt =
      api::Options::parse("importance=roi,roi=1:2:3:9:10:11,coarse_level=3,tile=8");
  EXPECT_EQ(opt.importance, "roi");
  ASSERT_TRUE(opt.roi.has_value());
  EXPECT_EQ(opt.roi->lo, (Coord3{1, 2, 3}));
  EXPECT_EQ(opt.roi->hi, (Coord3{9, 10, 11}));
  EXPECT_EQ(opt.coarse_level, 3);
  const auto back = api::Options::parse(opt.to_string());
  EXPECT_EQ(back.to_string(), opt.to_string());

  api::Options commas;
  commas.set("roi", "1,2,3,4,5,6");  // ',' accepted when set directly (CLI args)
  EXPECT_EQ(commas.roi->hi, (Coord3{4, 5, 6}));

  api::Options o;
  EXPECT_THROW(o.set("importance", "bogus"), ContractError);
  EXPECT_THROW(o.set("roi", "1:2:3"), ContractError);
  EXPECT_THROW(o.set("roi", "1:2:3:4:5:x"), ContractError);
  EXPECT_THROW(o.set("coarse_level", "-1"), ContractError);
  EXPECT_THROW(o.set("halo_threshold", "-2"), ContractError);
}

TEST(AdaptiveApi, CompressAdaptiveRoiAllSources) {
  const Dim3 d{48, 48, 16};
  const FieldF f = blob_field(d);
  api::Options opt = api::Options::parse("tile=16,coarse_level=2,eb=1e-3,eb_mode=abs");

  for (const char* source : {"gradient", "halo"}) {
    opt.importance = source;
    const Bytes stream = api::compress_adaptive_roi(f, opt);
    const auto meta = api::info(stream);
    EXPECT_EQ(meta.kind, api::StreamInfo::Kind::adaptive) << source;
    EXPECT_EQ(meta.dims, d) << source;
    EXPECT_EQ(meta.tiles, 9u) << source;
    float worst = 0.0f;
    for (const BrickEntry& e : read_index(stream).bricks)
      worst = std::max(worst, e.approx_err);
    EXPECT_LE(test::max_abs_err(f, api::decompress(stream)),
              static_cast<double>(worst) * (1.0 + 1e-5))
        << source;
  }

  opt.importance = "roi";
  EXPECT_THROW((void)api::compress_adaptive_roi(f, opt), ContractError);  // no box
  opt.roi = tiled::Box{{0, 0, 0}, {16, 16, 16}};
  const Bytes roi_stream = api::compress_adaptive_roi(f, opt);
  const Index roi_idx = read_index(roi_stream);
  EXPECT_EQ(roi_idx.bricks[0].level, 0);
  EXPECT_EQ(roi_idx.bricks[8].level, 2);

  opt.importance = "file";
  EXPECT_THROW((void)api::compress_adaptive_roi(f, opt), ContractError);  // no path
  const std::string path = testing::TempDir() + "mrc_importance.raw";
  io::write_raw(gradient_magnitude(f), path);
  opt.importance_file = path;
  const Bytes file_stream = api::compress_adaptive_roi(f, opt);
  EXPECT_EQ(api::info(file_stream).kind, api::StreamInfo::Kind::adaptive);
  std::remove(path.c_str());
}

TEST(AdaptiveApi, HaloDrivenStreamSmallerThanUniformTiled) {
  // The acceptance property on a Nyx-like blob field: same codec, same eb,
  // the halo-driven adaptive stream undercuts the uniform level-0 tiled
  // stream while the ROI bricks stay bit-identical to it.
  const Dim3 d{64, 64, 64};
  const FieldF f = blob_field(d);
  api::Options opt = api::Options::parse("tile=16,coarse_level=2,importance=halo");
  const Bytes adaptive_stream = api::compress_adaptive_roi(f, opt);
  const Bytes tiled_stream = api::compress_tiled(f, opt);
  EXPECT_LT(adaptive_stream.size(), tiled_stream.size());
}

}  // namespace mrc::adaptive
