// serve::Dataset — cached pyramid serving: bit-exact region reads through
// the brick cache, hit/miss/eviction counter consistency (including under
// N-thread contention on one Dataset), byte-budget eviction, async prefetch
// warming, adaptive choose_level budgets, and renderer integration. The
// cache + prefetch path is the repo's first heavily-shared mutable state;
// ci.sh reruns these tests under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "pyramid/pyramid.h"
#include "render/volume_renderer.h"
#include "serve/dataset.h"
#include "test_util.h"

namespace mrc {
namespace {

using tiled::Box;

/// 40^3 zfpx pyramid, brick 8 -> levels 40^3 (125 bricks), 20^3 (27), 10^3
/// (8), 5^3 (1).
Bytes test_pyramid(double eb = 0.05) {
  const FieldF f = test::smooth_field({40, 40, 40});
  pyramid::Config cfg;
  cfg.codec = "zfpx";
  cfg.brick = 8;
  cfg.threads = 2;
  return pyramid::build(f, eb, cfg);
}

serve::Config no_prefetch(std::size_t cache_bytes = 256ull << 20, int threads = 2) {
  serve::Config c;
  c.cache_bytes = cache_bytes;
  c.threads = threads;
  c.prefetch = false;
  return c;
}

// ---------------------------------------------------------------------------
// Serving correctness.
// ---------------------------------------------------------------------------

TEST(Serve, OpensPyramidAndReportsGeometry) {
  const Bytes stream = test_pyramid();
  serve::Dataset ds(stream, no_prefetch());
  EXPECT_EQ(ds.levels(), 4);
  EXPECT_EQ(ds.dims(0), (Dim3{40, 40, 40}));
  EXPECT_EQ(ds.dims(2), (Dim3{10, 10, 10}));
  EXPECT_DOUBLE_EQ(ds.eb(), 0.05);
  EXPECT_GE(ds.level_error(3), ds.level_error(0));
  EXPECT_THROW((void)ds.dims(4), ContractError);
  EXPECT_THROW((void)ds.read_region(4, Box{{0, 0, 0}, {1, 1, 1}}), ContractError);
  EXPECT_THROW((void)ds.read_region(0, Box{{0, 0, 0}, {99, 1, 1}}), ContractError);
}

TEST(Serve, OpensTiledStreamsAsSingleLevelDatasets) {
  const FieldF f = test::smooth_field({16, 16, 16});
  const Bytes stream = api::compress_tiled(f);
  serve::Dataset ds(stream, no_prefetch());
  EXPECT_EQ(ds.kind(), serve::Dataset::Kind::tiled);
  EXPECT_EQ(ds.levels(), 1);
  EXPECT_EQ(ds.dims(0), (Dim3{16, 16, 16}));
  EXPECT_GT(ds.eb(), 0.0);
  EXPECT_DOUBLE_EQ(ds.level_error(0), ds.eb());  // no LOD: codec bound only
  const Box box{{3, 0, 5}, {16, 9, 12}};
  EXPECT_EQ(ds.read_region(0, box), tiled::read_region(stream, box).data);
  EXPECT_EQ(ds.read_region(0, box), tiled::read_region(stream, box).data);
  EXPECT_GT(ds.stats().hits, 0u);  // the second read came from cache
}

/// Opens `stream` and checks the Dataset's level table against the values
/// read from the container's own index.
void expect_level_table(const Bytes& stream, serve::Dataset::Kind kind, double eb,
                        const std::vector<Dim3>& dims, const std::vector<double>& errs) {
  serve::Dataset ds(stream, no_prefetch());
  EXPECT_EQ(ds.kind(), kind);
  EXPECT_EQ(ds.eb(), eb);
  ASSERT_EQ(ds.levels(), static_cast<int>(dims.size()));
  for (int l = 0; l < ds.levels(); ++l) {
    const auto i = static_cast<std::size_t>(l);
    EXPECT_EQ(ds.dims(l), dims[i]) << "level " << l;
    EXPECT_EQ(ds.level_error(l), errs[i]) << "level " << l;
  }
}

TEST(Serve, LevelTableMatchesEveryContainersIndex) {
  const FieldF f = test::smooth_field({40, 40, 40});
  {
    SCOPED_TRACE("MRCT");
    tiled::Config cfg;
    cfg.codec = "zfpx";
    cfg.brick = 16;
    const Bytes stream = tiled::compress(f, 0.05, cfg);
    const tiled::Index idx = tiled::read_index(stream);
    expect_level_table(stream, serve::Dataset::Kind::tiled, idx.eb, {idx.dims},
                       {idx.eb});
  }
  {
    SCOPED_TRACE("MRCP");
    const Bytes stream = test_pyramid();
    const pyramid::Index idx = pyramid::read_index(stream);
    std::vector<Dim3> dims;
    std::vector<double> errs;
    for (const pyramid::LevelEntry& e : idx.levels) {
      dims.push_back(e.dims);
      errs.push_back(e.approx_err);
    }
    expect_level_table(stream, serve::Dataset::Kind::pyramid, idx.eb, dims, errs);
  }
  {
    SCOPED_TRACE("MRCR");
    progressive::Config cfg;
    cfg.codec = "zfpx";  // the coarsest level's codec differs from the residuals'
    cfg.brick = 8;
    cfg.threads = 2;
    const Bytes stream = progressive::build(f, 0.05, cfg);
    const progressive::Index idx = progressive::read_index(stream);
    ASSERT_NE(idx.data_codec_magic, idx.codec_magic);
    std::vector<Dim3> dims;
    std::vector<double> errs;
    for (const progressive::LevelEntry& e : idx.levels) {
      dims.push_back(e.dims);
      errs.push_back(e.approx_err);
    }
    expect_level_table(stream, serve::Dataset::Kind::progressive, idx.eb, dims, errs);
  }
  {
    SCOPED_TRACE("MRCA");
    adaptive::LevelMap map = adaptive::uniform_map(f.dims(), 16, 0);
    for (std::size_t t = 0; t < map.level.size(); ++t)
      map.level[t] = static_cast<std::uint8_t>(t % 3);
    adaptive::Config cfg;
    cfg.brick = 16;
    const Bytes stream = adaptive::compress(f, 0.05, map, cfg);
    const adaptive::Index idx = adaptive::read_index(stream);
    double worst = idx.eb;
    for (const adaptive::BrickEntry& e : idx.bricks)
      worst = std::max(worst, static_cast<double>(e.approx_err));
    EXPECT_GT(worst, idx.eb);  // coarse bricks dominate the codec bound
    expect_level_table(stream, serve::Dataset::Kind::adaptive, idx.eb, {idx.dims},
                       {worst});
  }
}

TEST(Serve, RejectsNonContainerStreams) {
  const FieldF f = test::smooth_field({16, 16, 16});
  EXPECT_THROW((void)serve::Dataset(api::compress(f), no_prefetch()), CodecError);
  EXPECT_THROW((void)serve::Dataset(Bytes(8, std::byte{0}), no_prefetch()), CodecError);
}

TEST(Serve, RegionsBitExactAgainstPyramidReads) {
  const Bytes stream = test_pyramid();
  serve::Dataset ds(stream, no_prefetch());
  for (int l = 0; l < ds.levels(); ++l) {
    const Dim3 ld = ds.dims(l);
    for (const Box box :
         {tiled::full_box(ld), Box{{1, 0, 2}, {ld.nx / 2 + 1, ld.ny, ld.nz / 2 + 1}},
          Box{{ld.nx - 1, ld.ny - 1, ld.nz - 1}, {ld.nx, ld.ny, ld.nz}}}) {
      const FieldF served = ds.read_region(l, box);
      const FieldF direct = pyramid::read_region(stream, l, box, 1).data;
      EXPECT_EQ(served, direct) << "level " << l;
      // Serve the same box again — now entirely from cache, still exact.
      EXPECT_EQ(ds.read_region(l, box), direct) << "level " << l;
    }
  }
}

TEST(Serve, CacheCountersTrackHitsAndMisses) {
  serve::Dataset ds(test_pyramid(), no_prefetch());
  // Level 2 is 10^3 with brick 8 -> a 2x2x2 tile grid, 8 bricks.
  const Box all = tiled::full_box(ds.dims(2));
  (void)ds.read_region(2, all);
  auto st = ds.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 8u);
  EXPECT_EQ(st.entries, 8u);
  EXPECT_GT(st.bytes, 0u);

  (void)ds.read_region(2, all);
  st = ds.stats();
  EXPECT_EQ(st.hits, 8u);
  EXPECT_EQ(st.misses, 8u);
  EXPECT_DOUBLE_EQ(st.hit_ratio(), 0.5);

  // A one-brick window only touches that brick.
  (void)ds.read_region(2, Box{{0, 0, 0}, {8, 8, 8}});
  st = ds.stats();
  EXPECT_EQ(st.hits, 9u);
  EXPECT_EQ(st.misses, 8u);

  ds.drop_cache();
  st = ds.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  (void)ds.read_region(2, all);
  EXPECT_EQ(ds.stats().misses, 16u);
}

TEST(Serve, TinyBudgetEvictsButStaysExact) {
  const Bytes stream = test_pyramid();
  // ~1 KiB budget cannot hold even one 9^3 decoded brick per shard.
  serve::Dataset ds(stream, no_prefetch(/*cache_bytes=*/1024));
  const Box all = tiled::full_box(ds.dims(0));
  const FieldF direct = pyramid::read_region(stream, 0, all, 1).data;
  EXPECT_EQ(ds.read_region(0, all), direct);
  EXPECT_EQ(ds.read_region(0, all), direct);  // still exact with a cold cache
  const auto st = ds.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, 64u * 1024u);  // newest-per-shard floor, not unbounded
}

// ---------------------------------------------------------------------------
// Adaptive LOD selection.
// ---------------------------------------------------------------------------

TEST(Serve, ChooseLevelRespectsSampleBudget) {
  serve::Dataset ds(test_pyramid(), no_prefetch());
  const Box view{{0, 0, 0}, {40, 40, 40}};
  // Budgets from "whole finest grid" down to "one sample": the chosen level
  // never exceeds a feasible budget, and larger budgets never pick coarser.
  int prev = 0;
  for (const index_t budget : {index_t{64000}, index_t{8000}, index_t{1000},
                               index_t{125}, index_t{1}}) {
    const int l = ds.choose_level(view, budget);
    const index_t served = ds.box_at_level(view, l).extent().size();
    if (budget >= 125) {  // coarsest rendition of the full view is 5^3
      EXPECT_LE(served, budget) << budget;
    }
    EXPECT_GE(l, prev) << budget;  // monotone: tighter budget, coarser level
    prev = l;
  }
  EXPECT_EQ(ds.choose_level(view, 64000), 0);
  EXPECT_EQ(ds.choose_level(view, 8000), 1);
  EXPECT_EQ(ds.choose_level(view, 1), ds.levels() - 1);  // infeasible: coarsest
  // A small window fits the finest level under a small budget.
  EXPECT_EQ(ds.choose_level(Box{{0, 0, 0}, {4, 4, 4}}, 64), 0);
  EXPECT_THROW((void)ds.choose_level(view, 0), ContractError);
}

TEST(Serve, ChooseLevelRespectsErrorBudget) {
  serve::Dataset ds(test_pyramid(/*eb=*/0.01), no_prefetch());
  // Tighter than the finest level's error -> finest; looser than the
  // coarsest's -> coarsest; anything between picks the cheapest level whose
  // recorded LOD error fits.
  EXPECT_EQ(ds.choose_level(1e-9), 0);
  EXPECT_EQ(ds.choose_level(1e9), ds.levels() - 1);
  for (int l = 0; l < ds.levels(); ++l) {
    const int chosen = ds.choose_level(ds.level_error(l) * (1 + 1e-6));
    EXPECT_GE(chosen, l);  // at least as cheap as l
    EXPECT_LE(ds.level_error(chosen), ds.level_error(l) * (1 + 1e-5));
  }
  EXPECT_THROW((void)ds.choose_level(0.0), ContractError);
}

// ---------------------------------------------------------------------------
// Prefetch.
// ---------------------------------------------------------------------------

TEST(Serve, PrefetchWarmsTheNeighborRing) {
  serve::Config cfg;
  cfg.threads = 4;
  cfg.prefetch = true;
  serve::Dataset ds(test_pyramid(), cfg);
  // Level 0 is a 5x5x5 tile grid. Reading the center brick's box prefetches
  // the 26 surrounding bricks.
  (void)ds.read_region(0, Box{{16, 16, 16}, {24, 24, 24}});
  ds.wait_idle();
  auto st = ds.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.prefetched, 26u);
  EXPECT_EQ(st.entries, 27u);
  // The whole 3x3x3 neighborhood now serves from cache: zero new misses.
  (void)ds.read_region(0, Box{{8, 8, 8}, {32, 32, 32}});
  st = ds.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 27u);
}

// ---------------------------------------------------------------------------
// Contention: N threads hammering one Dataset.
// ---------------------------------------------------------------------------

TEST(Serve, ConcurrentReadersStayExactAndCountersConsistent) {
  const Bytes stream = test_pyramid();
  serve::Dataset ds(stream, no_prefetch(/*cache_bytes=*/1u << 20, /*threads=*/2));
  const FieldF full = pyramid::decompress_level(stream, 0, 2);
  const Dim3 ld = full.dims();

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 25;
  std::atomic<std::uint64_t> expected_lookups{0};
  std::atomic<int> mismatches{0};

  // Hammer stats() from a sampler thread while the readers run: every
  // snapshot — taken mid-decode, mid-eviction, whenever — must satisfy the
  // documented invariant hits + misses == lookups exactly (counters only
  // move under the cache's shard locks; see serve/brick_cache.h).
  std::atomic<bool> sampling{true};
  std::atomic<int> inconsistent_snapshots{0};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const auto snap = ds.stats();
      if (snap.hits + snap.misses != snap.lookups) inconsistent_snapshots.fetch_add(1);
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(1234u + static_cast<std::uint64_t>(w));
      for (int r = 0; r < kReadsPerThread; ++r) {
        const index_t x0 = static_cast<index_t>(rng.uniform() * 32);
        const index_t y0 = static_cast<index_t>(rng.uniform() * 32);
        const index_t z0 = static_cast<index_t>(rng.uniform() * 32);
        const Box box{{x0, y0, z0}, {x0 + 8, y0 + 8, z0 + 8}};
        // Bricks the read must look up (brick edge 8 on a 40^3 level).
        const index_t bricks = (ceil_div(box.hi.x, 8) - x0 / 8) *
                               (ceil_div(box.hi.y, 8) - y0 / 8) *
                               (ceil_div(box.hi.z, 8) - z0 / 8);
        expected_lookups.fetch_add(static_cast<std::uint64_t>(bricks));
        const FieldF got = ds.read_region(0, box);
        for (index_t z = 0; z < 8; ++z)
          for (index_t y = 0; y < 8; ++y)
            for (index_t x = 0; x < 8; ++x)
              if (got.at(x, y, z) != full.at(x0 + x, y0 + y, z0 + z)) {
                mismatches.fetch_add(1);
                return;
              }
      }
    });
  }
  for (auto& t : workers) t.join();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(inconsistent_snapshots.load(), 0);
  const auto st = ds.stats();
  EXPECT_EQ(st.lookups, expected_lookups.load());
  EXPECT_EQ(st.hits + st.misses, expected_lookups.load());
  EXPECT_GT(st.hits, 0u);
  (void)ld;
}

// ---------------------------------------------------------------------------
// Renderer integration.
// ---------------------------------------------------------------------------

TEST(Serve, RendererDrawsIdenticalPixelsFromTheDataset) {
  const Bytes stream = test_pyramid();
  serve::Dataset ds(stream, no_prefetch());
  for (const int level : {0, 2}) {
    const FieldF direct = pyramid::decompress_level(stream, level, 1);
    const auto tf = render::auto_transfer(direct);
    const render::Image a = render::volume_render(direct, tf);
    const render::Image b = render::volume_render(ds, level, tf);
    ASSERT_EQ(a.width, b.width);
    ASSERT_EQ(a.height, b.height);
    EXPECT_EQ(a.pixels, b.pixels) << "level " << level;
  }
}

}  // namespace
}  // namespace mrc
