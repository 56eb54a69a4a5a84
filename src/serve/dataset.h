#pragma once

// Cached Dataset serving layer over the multi-resolution containers: open a
// tiled stream (MRCT), a LOD pyramid (MRCP), an adaptive stream (MRCA) or a
// progressive residual stream (MRCR) once, then answer region queries with
// a working set bounded by a byte budget instead of the request size.
//
// Opening dispatches on the container header exactly once and builds a
// per-level table: extents, LOD error bound, tile index, the level's nested
// tiled stream and a codec made from that stream's own codec id. MRCT is one
// level, MRCP and MRCR one level per nested stream, MRCA one level whose
// bricks stay in the adaptive index. Every accessor is a table lookup and
// every tiled read is the same fetch-and-copy path; the only container
// branches left are MRCR's top-down residual fold and MRCA's seam-free
// blend. The serving pieces around the table:
//
//   * a shared, sharded, byte-budgeted brick cache (serve::BrickCache) so
//     repeated viewport queries decode each brick once. A standalone Dataset
//     owns a private cache and exec pool sized by its Config; Datasets
//     opened by a multi-tenant serve::Server instead share one global cache
//     and one pool, so a hot dataset's bricks can evict a cold one's;
//   * request coalescing: every decode — demand or prefetch — registers in
//     the cache's in-flight table, so identical concurrent requests for one
//     brick run exactly one decode, and a demand read claims (preempts) a
//     queued-but-unstarted prefetch of the same brick instead of waiting
//     behind it;
//   * async prefetch of the bricks ringing a query's footprint, queued at
//     exec::Priority::low so warming never delays a demand read;
//   * adaptive LOD selection — choose_level maps a viewport box plus a
//     sample budget (or an error budget) to the cheapest sufficient level,
//     so callers ask for a window and a budget, not a level.
//
// Dataset is safe to hammer from any number of threads: every read is
// bit-identical to tiled/pyramid/progressive/adaptive read_region on the
// same (level, box), whatever the cache/prefetch state. stats() returns an
// atomically consistent snapshot: `hits + misses == lookups` holds exactly
// in any snapshot, concurrent load included (counters are mutated only
// under the cache's shard locks — see brick_cache.h). Adaptive and tiled
// streams expose one addressable level (0); for adaptive that is the
// seam-free blended finest grid, and what varies is the stored resolution
// underneath, which is the container's business.

#include <cstdint>
#include <memory>

#include <vector>

#include "adaptive/adaptive.h"
#include "common/bytes.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "serve/brick_cache.h"

namespace mrc::serve {

/// One layer of a progressive read: the coarsest layer carries decoded
/// data over its box; every finer layer carries a *residual* window the
/// client applies in place via progressive::refine. Boxes are in each
/// layer's own level coordinates and follow the prolongation-support chain
/// (layer l+1's box covers the prolongation footprint of layer l's).
struct ProgressiveLayer {
  int level = 0;
  Dim3 level_dims;  ///< global extents of this level (client prolongs with these)
  tiled::Box box;
  FieldF data;
  bool residual = false;  ///< false only for the coarsest layer
};

struct Config {
  std::size_t cache_bytes = 256ull << 20;  ///< decoded-brick byte budget
  int threads = 0;   ///< exec-pool lanes for decode + prefetch; 0 = hardware
  bool prefetch = true;  ///< warm neighbor bricks asynchronously (needs > 1 lane)
};

class Dataset {
 public:
  enum class Kind : std::uint8_t { tiled, pyramid, adaptive, progressive };

  /// Opens a tiled (MRCT), pyramid (MRCP), adaptive (MRCA) or progressive
  /// (MRCR) stream — dispatched on the container header — taking ownership
  /// of the bytes and parsing + validating the full index once. Builds a
  /// private cache (cfg.cache_bytes) and exec pool (cfg.threads). Throws
  /// CodecError on any other stream.
  explicit Dataset(Bytes stream, const Config& cfg = {});

  /// Same, but serving through a shared cache and pool (the multi-tenant
  /// serve::Server path). cfg.cache_bytes/threads are ignored — the
  /// shared resources already exist — and cfg.prefetch still gates the
  /// prefetch ring. Both pointers must be non-null.
  Dataset(Bytes stream, const Config& cfg, std::shared_ptr<BrickCache> cache,
          std::shared_ptr<exec::ThreadPool> pool);

  ~Dataset();
  Dataset(Dataset&&) noexcept;
  Dataset& operator=(Dataset&&) noexcept;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  [[nodiscard]] Kind kind() const;
  /// The adaptive brick index (adaptive datasets only; throws ContractError
  /// otherwise).
  [[nodiscard]] const adaptive::Index& adaptive_index() const;
  /// Addressable level count: the pyramid's/progressive stream's level
  /// table, or 1 for tiled and adaptive streams (adaptive level 0 = the
  /// blended finest grid).
  [[nodiscard]] int levels() const;
  [[nodiscard]] Dim3 dims(int level) const;  ///< extents of one level
  [[nodiscard]] double eb() const;  ///< codec error bound (container header)
  /// LOD error bound of a level: the pyramid's or progressive stream's
  /// per-level approx_err, the worst of eb and every per-brick approx_err of
  /// an adaptive stream (its level 0 already mixes resolutions), or the
  /// codec error bound for tiled streams (no LOD).
  [[nodiscard]] double level_error(int level) const;

  /// Reads `region` (in level-`level` coordinates) through the brick cache —
  /// bit-identical to tiled/pyramid/progressive::read_region(stream, level,
  /// region), or to adaptive::read_region(stream, region) for adaptive
  /// datasets (which serve only level 0, in finest-grid coordinates). For
  /// progressive datasets the cache holds residual bricks keyed by their own
  /// level and the reconstruction chain runs here, top-down.
  [[nodiscard]] FieldF read_region(int level, const tiled::Box& region);

  /// The layered form of a progressive read (progressive datasets only):
  /// the coarsest layer's decoded data over the support chain's top box,
  /// then one residual window per finer level down to `level`, coarsest
  /// first. Folding the layers with progressive::refine reproduces
  /// read_region(level, region) bit-exactly — this is what the wire
  /// protocol streams so a client can show the coarse answer immediately
  /// and refine in place.
  [[nodiscard]] std::vector<ProgressiveLayer> read_progressive(
      int level, const tiled::Box& region);

  /// A finest-grid box mapped onto level `level` (floor/ceil to cover the
  /// same spatial extent, clipped to the level grid).
  [[nodiscard]] tiled::Box box_at_level(const tiled::Box& fine_box, int level) const;

  /// The finest level whose rendition of `fine_box` fits in `sample_budget`
  /// samples; never exceeds the budget unless even the coarsest level does
  /// (then the coarsest level — the cheapest available — is returned).
  [[nodiscard]] int choose_level(const tiled::Box& fine_box,
                                 index_t sample_budget) const;

  /// The coarsest (cheapest) level whose LOD error bound stays within
  /// `eb_budget`; level 0 if none does.
  [[nodiscard]] int choose_level(double eb_budget) const;

  /// This dataset's slice of the cache counters. The snapshot is internally
  /// consistent: `hits + misses == lookups` holds exactly — under concurrent
  /// reads, mid-prefetch, always — because counters only change under the
  /// cache's shard locks. With a shared cache, bytes/entries/evictions
  /// reflect this dataset's residency inside the *global* budget.
  [[nodiscard]] CacheStats stats() const;

  /// Blocks until no decode of this dataset is queued or running (benches
  /// and tests use this to make cache contents deterministic).
  void wait_idle();

  /// Evicts this dataset's bricks (counters keep accumulating).
  void drop_cache();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrc::serve
