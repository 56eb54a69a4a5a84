#include "serve/dataset.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mrc::serve {

namespace {

/// Brick key within one dataset: level in the high bits, tile id in the low
/// 48 (the container caps total samples at 2^40, so tile counts never reach
/// 2^48).
std::uint64_t brick_key(int level, index_t tile) {
  return (static_cast<std::uint64_t>(level) << 48) |
         static_cast<std::uint64_t>(tile);
}

}  // namespace

struct Dataset::Impl {
  /// One addressable level, resolved once at open. MRCT is one level, MRCP
  /// and MRCR one per nested tiled stream; MRCA is one level whose bricks
  /// live in `aidx`, so its `ti` stays empty.
  struct Level {
    Dim3 dims;
    double error = 0.0;                 ///< LOD error bound (level_error)
    tiled::Index ti;                    ///< tile index of the level's stream
    std::span<const std::byte> bytes;   ///< the level's stream inside `stream`
    /// Made from the level stream's own codec magic (an MRCR's coarsest data
    /// level may use another codec than its residual levels); stateless, so
    /// shared by all lanes.
    std::unique_ptr<Compressor> codec;
  };

  // -- immutable after construction -----------------------------------------
  Bytes stream;
  Config cfg;
  Dataset::Kind kind{};
  double eb = 0.0;            ///< codec error bound from the container header
  std::vector<Level> levels;  ///< [0] = finest
  pyramid::Index lidx;        ///< MRCP/MRCR level table (MRCR's support chain)
  adaptive::Index aidx;       ///< adaptive datasets only (brick table)

  // -- shared serving resources ---------------------------------------------
  // The cache is declared before the pool: when this Impl owns both (the
  // standalone ctor), the pool is destroyed first, so queued prefetch tasks
  // drain while the cache they reference is still alive.
  std::shared_ptr<BrickCache> cache;
  std::shared_ptr<exec::ThreadPool> pool;
  std::uint32_t ds_id = 0;
  /// Set in ~Impl: prefetch closures queued in the cache still run during
  /// the teardown drain, but they skip the pointless decode.
  std::atomic<bool> shutting_down{false};

  Impl(Bytes s, const Config& c, std::shared_ptr<BrickCache> sh_cache,
       std::shared_ptr<exec::ThreadPool> sh_pool)
      : stream(std::move(s)), cfg(c) {
    if (sh_cache == nullptr) {
      MRC_REQUIRE(sh_pool == nullptr,
                  "serve: shared cache and pool come as a pair");
      MRC_REQUIRE(cfg.cache_bytes >= 1, "serve: cache byte budget must be >= 1");
      cache = std::make_shared<BrickCache>(cfg.cache_bytes);
      pool = std::make_shared<exec::ThreadPool>(cfg.threads);
    } else {
      MRC_REQUIRE(sh_pool != nullptr,
                  "serve: shared cache and pool come as a pair");
      cache = std::move(sh_cache);
      pool = std::move(sh_pool);
    }
    ds_id = cache->register_dataset();

    const StreamHeader h = peek_header(stream);
    eb = h.eb;
    const auto add_tiled_level = [this](std::span<const std::byte> bytes,
                                        double error) {
      tiled::Index ti = tiled::read_index(bytes);
      std::unique_ptr<Compressor> codec = registry().make_for_magic(ti.codec_magic);
      levels.push_back({ti.dims, error, std::move(ti), bytes, std::move(codec)});
    };
    if (h.codec_magic == adaptive::kAdaptiveMagic) {
      kind = Dataset::Kind::adaptive;
      aidx = adaptive::read_index(stream);
      // Level 0 mixes stored resolutions: its bound is the worst brick's.
      double worst = aidx.eb;
      for (const adaptive::BrickEntry& e : aidx.bricks)
        worst = std::max(worst, static_cast<double>(e.approx_err));
      levels.push_back(
          {aidx.dims, worst, {}, stream, registry().make_for_magic(aidx.codec_magic)});
    } else if (h.codec_magic == tiled::kTiledMagic) {
      kind = Dataset::Kind::tiled;
      add_tiled_level(stream, eb);  // no LOD: codec bound only
    } else {
      const bool mrcr = h.codec_magic == progressive::kProgressiveMagic;
      kind = mrcr ? Dataset::Kind::progressive : Dataset::Kind::pyramid;
      lidx = mrcr ? progressive::read_index(stream) : pyramid::read_index(stream);
      for (std::size_t l = 0; l < lidx.levels.size(); ++l)
        add_tiled_level(lidx.level_stream(stream, l), lidx.levels[l].approx_err);
    }
  }

  ~Impl() {
    // Prefetch closures queued in the cache reference this Impl; block until
    // every decode of this dataset has been claimed or drained before any
    // member dies. The flag turns the drained decodes into no-ops, so
    // teardown is bounded by in-flight work, not the whole backlog.
    shutting_down.store(true, std::memory_order_relaxed);
    cache->wait_idle(ds_id);
    cache->drop(ds_id);  // a shared cache hands the budget back immediately
  }

  /// Brick grid the prefetch ring walks (per level for tiled levels, the
  /// brick grid for adaptive streams).
  [[nodiscard]] const Dim3& grid_of(int level) const {
    return kind == Dataset::Kind::adaptive
               ? aidx.grid
               : levels[static_cast<std::size_t>(level)].ti.grid;
  }

  /// Cache key of one brick. For adaptive streams the key carries the
  /// brick's own stored level, so a re-encoded stream with different level
  /// assignments never aliases stale cache entries of the same tile id.
  [[nodiscard]] CacheKey key_of(int level, index_t tile) const {
    if (kind == Dataset::Kind::adaptive)
      return {ds_id,
              brick_key(aidx.bricks[static_cast<std::size_t>(tile)].level, tile)};
    return {ds_id, brick_key(level, tile)};
  }

  BrickPtr decode(int level, index_t tile) const {
    const Level& lv = levels[static_cast<std::size_t>(level)];
    const auto t = static_cast<std::size_t>(tile);
    if (kind == Dataset::Kind::adaptive) {
      // The cache holds the fine-resolution rendition — decoded samples for
      // level-0 bricks, the trilinear prolongation for coarse ones — which
      // is what every assembly consumes.
      return std::make_shared<const FieldF>(adaptive::reconstruct_brick(
          aidx, t, adaptive::decode_brick(aidx, *lv.codec, lv.bytes, t)));
    }
    // For progressive datasets the cached brick holds *residual* samples
    // (data samples for the coarsest level) — the reconstruction chain sits
    // above the cache, in progressive_layers.
    return std::make_shared<const FieldF>(
        tiled::decode_tile(lv.ti, *lv.codec, lv.bytes, t));
  }

  /// Fetches the bricks `hit` of `level` through the shared cache: resident
  /// bricks are hits, in-flight decodes (another reader's, or a queued
  /// prefetch this read claims) are coalesced, the rest decode here — one
  /// decode per brick however many threads collide. Each brick is held in
  /// the result so an assembly stays exact even if the cache immediately
  /// evicts it.
  std::vector<BrickPtr> fetch(int level, const std::vector<index_t>& hit) {
    std::vector<BrickPtr> bricks(hit.size());
    pool->parallel_for(static_cast<index_t>(hit.size()), [&](index_t i) {
      const auto slot = static_cast<std::size_t>(i);
      bricks[slot] = cache->fetch(key_of(level, hit[slot]),
                                  [&] { return decode(level, hit[slot]); });
    });
    return bricks;
  }

  /// Assembles the raw stored samples of one tiled level over `box` through
  /// the cache — core ∩ box from every intersecting brick, the same
  /// ownership rule as tiled::read_region. For pyramid/tiled levels that is
  /// the data; for progressive levels below the top it is the residual
  /// window. `hit` receives the bricks read.
  FieldF assemble_level(int level, const tiled::Box& box, std::vector<index_t>& hit) {
    const tiled::Index& ti = levels[static_cast<std::size_t>(level)].ti;
    hit = tiled::tiles_in_region(ti, box);
    const std::vector<BrickPtr> bricks = fetch(level, hit);
    FieldF out(box.extent());
    for (std::size_t i = 0; i < hit.size(); ++i) {
      const auto t = static_cast<std::size_t>(hit[i]);
      tiled::copy_core(*bricks[i], ti.tiles[t].origin, ti.core_extent(t), box, out);
    }
    return out;
  }

  /// The seam-free adaptive read: `hit` receives the owners plus the
  /// low-side contributors the blend needs, and the container's blend rule
  /// runs over the cached fine-resolution renditions — bit-identical to
  /// adaptive::read_region.
  FieldF assemble_blend(const tiled::Box& region, std::vector<index_t>& hit) {
    hit = adaptive::bricks_for_region(aidx, region);
    const std::vector<BrickPtr> bricks = fetch(0, hit);
    std::unordered_map<index_t, std::size_t> slot;
    slot.reserve(hit.size());
    for (std::size_t i = 0; i < hit.size(); ++i) slot.emplace(hit[i], i);
    FieldF out(region.extent());
    adaptive::detail::assemble_region(
        aidx, region, [&](index_t t) -> const FieldF& { return *bricks[slot.at(t)]; },
        out);
    return out;
  }

  /// The layered progressive read: one cache-assembled window per level of
  /// the support chain, coarsest first. Folding with progressive::refine
  /// reproduces progressive::read_region bit-exactly.
  std::vector<ProgressiveLayer> progressive_layers(int level, const tiled::Box& region) {
    MRC_REQUIRE(kind == Dataset::Kind::progressive,
                "serve: not a progressive dataset");
    const auto boxes = progressive::support_chain(lidx, level, region);
    const int top = static_cast<int>(levels.size()) - 1;
    std::vector<ProgressiveLayer> layers;
    layers.reserve(static_cast<std::size_t>(top - level + 1));
    std::vector<index_t> hit;  // after the loop: the requested level's bricks
    for (int l = top; l >= level; --l) {
      OBS_SPAN("serve.progressive_layer");
      ProgressiveLayer layer;
      layer.level = l;
      layer.level_dims = levels[static_cast<std::size_t>(l)].dims;
      layer.box = boxes[static_cast<std::size_t>(l)];
      layer.residual = l != top;
      layer.data = assemble_level(l, layer.box, hit);
      layers.push_back(std::move(layer));
    }
    prefetch_ring(level, hit);
    return layers;
  }

  /// Queues async decodes for the bricks ringing `hit`'s bounding tile box
  /// at Priority::low (the cache dedups against resident bricks, in-flight
  /// decodes and its own backlog cap). Single-lane pools would run "async"
  /// prefetch inline and make every read pay for its neighbors, so this
  /// only warms ahead when prefetch is on and there are real workers.
  void prefetch_ring(int level, const std::vector<index_t>& hit) {
    if (!cfg.prefetch || pool->size() <= 1) return;
    const Dim3& grid = grid_of(level);
    Coord3 lo{grid.nx, grid.ny, grid.nz};
    Coord3 hi{0, 0, 0};
    for (const index_t t : hit) {
      const Coord3 c = tiled::tile_coord(grid, t);
      lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
      hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
    }
    for (index_t z = std::max<index_t>(0, lo.z - 1);
         z <= std::min(grid.nz - 1, hi.z + 1); ++z)
      for (index_t y = std::max<index_t>(0, lo.y - 1);
           y <= std::min(grid.ny - 1, hi.y + 1); ++y)
        for (index_t x = std::max<index_t>(0, lo.x - 1);
             x <= std::min(grid.nx - 1, hi.x + 1); ++x) {
          if (x >= lo.x && x <= hi.x && y >= lo.y && y <= hi.y && z >= lo.z &&
              z <= hi.z)
            continue;  // inside the footprint: already decoded by the read
          const index_t t = x + grid.nx * (y + grid.ny * z);
          cache->prefetch(key_of(level, t), *pool, [this, level, t]() -> BrickPtr {
            // null = "decline": whoever needs the brick decodes it itself.
            if (shutting_down.load(std::memory_order_relaxed)) return nullptr;
            return decode(level, t);
          });
        }
  }
};

Dataset::Dataset(Bytes stream, const Config& cfg)
    : impl_(std::make_unique<Impl>(std::move(stream), cfg, nullptr, nullptr)) {}
Dataset::Dataset(Bytes stream, const Config& cfg, std::shared_ptr<BrickCache> cache,
                 std::shared_ptr<exec::ThreadPool> pool) {
  MRC_REQUIRE(cache != nullptr && pool != nullptr,
              "serve: shared Dataset needs a cache and a pool");
  impl_ = std::make_unique<Impl>(std::move(stream), cfg, std::move(cache),
                                 std::move(pool));
}
Dataset::~Dataset() = default;
Dataset::Dataset(Dataset&&) noexcept = default;
Dataset& Dataset::operator=(Dataset&&) noexcept = default;

Dataset::Kind Dataset::kind() const { return impl_->kind; }

const adaptive::Index& Dataset::adaptive_index() const {
  MRC_REQUIRE(impl_->kind == Kind::adaptive, "serve: not an adaptive dataset");
  return impl_->aidx;
}

int Dataset::levels() const { return static_cast<int>(impl_->levels.size()); }

double Dataset::eb() const { return impl_->eb; }

Dim3 Dataset::dims(int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  return impl_->levels[static_cast<std::size_t>(level)].dims;
}

double Dataset::level_error(int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  return impl_->levels[static_cast<std::size_t>(level)].error;
}

FieldF Dataset::read_region(int level, const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  OBS_SPAN("serve.dataset_read");
  Impl& im = *impl_;
  if (im.kind == Kind::progressive) {
    // Fold the layered read top-down with the shared refine step — the same
    // arithmetic as progressive::read_region, hence bit-identical.
    auto layers = im.progressive_layers(level, region);
    FieldF window = std::move(layers.front().data);
    for (std::size_t i = 1; i < layers.size(); ++i) {
      const ProgressiveLayer& coarse = layers[i - 1];
      const ProgressiveLayer& fine = layers[i];
      window = progressive::refine(window, coarse.box, coarse.level_dims, fine.data,
                                   fine.box, fine.level_dims);
    }
    return window;
  }
  std::vector<index_t> hit;
  FieldF out = im.kind == Kind::adaptive ? im.assemble_blend(region, hit)
                                         : im.assemble_level(level, region, hit);
  im.prefetch_ring(level, hit);
  return out;
}

std::vector<ProgressiveLayer> Dataset::read_progressive(int level,
                                                        const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  OBS_SPAN("serve.dataset_read");
  return impl_->progressive_layers(level, region);
}

tiled::Box Dataset::box_at_level(const tiled::Box& fine_box, int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  const Dim3 fd = dims(0);
  const Dim3 ext = fine_box.extent();
  MRC_REQUIRE(fine_box.lo.x >= 0 && fine_box.lo.y >= 0 && fine_box.lo.z >= 0 &&
                  ext.nx > 0 && ext.ny > 0 && ext.nz > 0 && fine_box.hi.x <= fd.nx &&
                  fine_box.hi.y <= fd.ny && fine_box.hi.z <= fd.nz,
              "serve: box must be a non-empty box inside " + fd.str());
  const index_t s = index_t{1} << level;
  const Dim3 ld = dims(level);
  return {{fine_box.lo.x / s, fine_box.lo.y / s, fine_box.lo.z / s},
          {std::min(ceil_div(fine_box.hi.x, s), ld.nx),
           std::min(ceil_div(fine_box.hi.y, s), ld.ny),
           std::min(ceil_div(fine_box.hi.z, s), ld.nz)}};
}

int Dataset::choose_level(const tiled::Box& fine_box, index_t sample_budget) const {
  MRC_REQUIRE(sample_budget >= 1, "serve: sample budget must be >= 1");
  for (int l = 0; l < levels(); ++l)
    if (box_at_level(fine_box, l).extent().size() <= sample_budget) return l;
  return levels() - 1;
}

int Dataset::choose_level(double eb_budget) const {
  MRC_REQUIRE(eb_budget > 0.0, "serve: error budget must be > 0");
  for (int l = levels() - 1; l > 0; --l)
    if (level_error(l) <= eb_budget) return l;
  return 0;
}

CacheStats Dataset::stats() const { return impl_->cache->stats(impl_->ds_id); }

void Dataset::wait_idle() { impl_->cache->wait_idle(impl_->ds_id); }

void Dataset::drop_cache() { impl_->cache->drop(impl_->ds_id); }

}  // namespace mrc::serve
