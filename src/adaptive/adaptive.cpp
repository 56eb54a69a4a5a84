#include "adaptive/adaptive.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "analysis/halo_finder.h"
#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"
#include "roi/roi_extract.h"

namespace mrc::adaptive {

namespace {

std::string magic_hex(std::uint32_t magic) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", magic);
  return buf;
}

/// Smallest possible index record: 6 single-byte varints + three f32s.
inline constexpr std::size_t kMinBrickRecord = 18;

/// Per-brick max score over the core region of every brick.
std::vector<double> brick_max_scores(const FieldF& score, index_t brick) {
  const Dim3 d = score.dims();
  const Dim3 grid = blocks_for(d, brick);
  std::vector<double> out(static_cast<std::size_t>(grid.size()),
                          -std::numeric_limits<double>::infinity());
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const index_t t = (x / brick) + grid.nx * ((y / brick) + grid.ny * (z / brick));
        auto& s = out[static_cast<std::size_t>(t)];
        s = std::max(s, static_cast<double>(score.at(x, y, z)));
      }
  return out;
}

LevelMap map_from_scores(Dim3 dims, index_t brick, std::span<const double> scores,
                         double keep_fraction, int coarse_level) {
  MRC_REQUIRE(coarse_level >= 0 && coarse_level <= max_level(brick),
              "adaptive: coarse level must be in [0, max_level(brick)]");
  MRC_REQUIRE(keep_fraction >= 0.0 && keep_fraction <= 1.0,
              "adaptive: keep fraction must be in [0, 1]");
  LevelMap map;
  map.grid = blocks_for(dims, brick);
  MRC_REQUIRE(static_cast<std::size_t>(map.grid.size()) == scores.size(),
              "adaptive: one score per brick required");
  const double thr = roi::keep_fraction_threshold(scores, keep_fraction);
  map.level.resize(scores.size());
  for (std::size_t t = 0; t < scores.size(); ++t)
    map.level[t] = scores[t] >= thr ? 0 : static_cast<std::uint8_t>(coarse_level);
  return map;
}

}  // namespace

int max_level(index_t brick) {
  MRC_REQUIRE(brick >= 1, "adaptive: brick edge must be >= 1");
  int l = 0;
  while (l + 1 < kMaxLevels && (kOverlap << (l + 1)) <= brick) ++l;
  return l;
}

int LevelMap::n_levels() const {
  std::uint8_t top = 0;
  for (const std::uint8_t l : level) top = std::max(top, l);
  return static_cast<int>(top) + 1;
}

LevelMap uniform_map(Dim3 dims, index_t brick, int level) {
  MRC_REQUIRE(level >= 0 && level <= max_level(brick),
              "adaptive: level must be in [0, max_level(brick)]");
  LevelMap map;
  map.grid = blocks_for(dims, brick);
  map.level.assign(static_cast<std::size_t>(map.grid.size()),
                   static_cast<std::uint8_t>(level));
  return map;
}

LevelMap map_from_mask(Dim3 dims, index_t brick, const MaskField& important,
                       int coarse_level, index_t dilate_bricks) {
  MRC_REQUIRE(important.dims() == dims, "adaptive: mask extents must match the field");
  MRC_REQUIRE(coarse_level >= 0 && coarse_level <= max_level(brick),
              "adaptive: coarse level must be in [0, max_level(brick)]");
  MRC_REQUIRE(dilate_bricks >= 0, "adaptive: dilation must be >= 0");
  LevelMap map;
  map.grid = blocks_for(dims, brick);
  std::vector<std::uint8_t> hot(static_cast<std::size_t>(map.grid.size()), 0);
  for (index_t z = 0; z < dims.nz; ++z)
    for (index_t y = 0; y < dims.ny; ++y)
      for (index_t x = 0; x < dims.nx; ++x)
        if (important.at(x, y, z) != 0)
          hot[static_cast<std::size_t>((x / brick) +
                                       map.grid.nx * ((y / brick) +
                                                      map.grid.ny * (z / brick)))] = 1;
  map.level.resize(hot.size());
  const Dim3 g = map.grid;
  for (index_t tz = 0; tz < g.nz; ++tz)
    for (index_t ty = 0; ty < g.ny; ++ty)
      for (index_t tx = 0; tx < g.nx; ++tx) {
        bool fine = false;
        for (index_t dz = -dilate_bricks; dz <= dilate_bricks && !fine; ++dz)
          for (index_t dy = -dilate_bricks; dy <= dilate_bricks && !fine; ++dy)
            for (index_t dx = -dilate_bricks; dx <= dilate_bricks && !fine; ++dx) {
              const index_t nx = tx + dx, ny = ty + dy, nz = tz + dz;
              if (nx < 0 || ny < 0 || nz < 0 || nx >= g.nx || ny >= g.ny || nz >= g.nz)
                continue;
              fine = hot[static_cast<std::size_t>(nx + g.nx * (ny + g.ny * nz))] != 0;
            }
        map.level[static_cast<std::size_t>(tx + g.nx * (ty + g.ny * tz))] =
            fine ? 0 : static_cast<std::uint8_t>(coarse_level);
      }
  return map;
}

LevelMap map_from_halos(const FieldF& density, index_t brick, float threshold,
                        index_t min_cells, int coarse_level) {
  const MaskField mask = analysis::halo_mask(density, threshold, min_cells);
  return map_from_mask(density.dims(), brick, mask, coarse_level, /*dilate_bricks=*/1);
}

LevelMap map_from_gradient(const FieldF& f, index_t brick, double keep_fraction,
                           int coarse_level) {
  const FieldF g = gradient_magnitude(f);
  const auto scores = brick_max_scores(g, brick);
  return map_from_scores(f.dims(), brick, scores, keep_fraction, coarse_level);
}

LevelMap map_from_boxes(Dim3 dims, index_t brick, std::span<const tiled::Box> rois,
                        int coarse_level) {
  MRC_REQUIRE(coarse_level >= 0 && coarse_level <= max_level(brick),
              "adaptive: coarse level must be in [0, max_level(brick)]");
  LevelMap map;
  map.grid = blocks_for(dims, brick);
  map.level.assign(static_cast<std::size_t>(map.grid.size()),
                   static_cast<std::uint8_t>(coarse_level));
  for (const tiled::Box& b : rois) {
    const Dim3 ext = b.extent();
    MRC_REQUIRE(b.lo.x >= 0 && b.lo.y >= 0 && b.lo.z >= 0 && ext.nx > 0 && ext.ny > 0 &&
                    ext.nz > 0 && b.hi.x <= dims.nx && b.hi.y <= dims.ny &&
                    b.hi.z <= dims.nz,
                "adaptive: ROI must be a non-empty box inside " + dims.str());
    for (index_t tz = b.lo.z / brick; tz < ceil_div(b.hi.z, brick); ++tz)
      for (index_t ty = b.lo.y / brick; ty < ceil_div(b.hi.y, brick); ++ty)
        for (index_t tx = b.lo.x / brick; tx < ceil_div(b.hi.x, brick); ++tx)
          map.level[static_cast<std::size_t>(tx + map.grid.nx *
                                                      (ty + map.grid.ny * tz))] = 0;
  }
  return map;
}

LevelMap map_from_field(const FieldF& importance, index_t brick, double keep_fraction,
                        int coarse_level) {
  const auto scores = brick_max_scores(importance, brick);
  return map_from_scores(importance.dims(), brick, scores, keep_fraction, coarse_level);
}

Dim3 brick_fine_extent(const Dim3& dims, const Coord3& o, index_t brick, int level) {
  const index_t reach = brick + (kOverlap << level);
  return {std::min(reach, dims.nx - o.x), std::min(reach, dims.ny - o.y),
          std::min(reach, dims.nz - o.z)};
}

Dim3 brick_stored_extent(const Dim3& dims, const Coord3& o, index_t brick, int level) {
  const Dim3 fine = brick_fine_extent(dims, o, brick, level);
  const index_t s = index_t{1} << level;
  return {ceil_div(fine.nx, s), ceil_div(fine.ny, s), ceil_div(fine.nz, s)};
}

Coord3 Index::origin(std::size_t t) const {
  const Coord3 tc = tiled::tile_coord(grid, static_cast<index_t>(t));
  return {tc.x * brick, tc.y * brick, tc.z * brick};
}

Dim3 Index::core_extent(std::size_t t) const {
  const Coord3 o = origin(t);
  return {std::min(brick, dims.nx - o.x), std::min(brick, dims.ny - o.y),
          std::min(brick, dims.nz - o.z)};
}

Dim3 Index::fine_extent(std::size_t t) const {
  return brick_fine_extent(dims, origin(t), brick, bricks[t].level);
}

Bytes compress(const FieldF& f, double abs_eb, const LevelMap& levels,
               const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "adaptive: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "adaptive: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "adaptive: brick edge must be >= 1");
  const Dim3 d = f.dims();
  const Dim3 grid = blocks_for(d, cfg.brick);
  const index_t n_bricks = grid.size();
  MRC_REQUIRE(levels.grid == grid && static_cast<index_t>(levels.level.size()) == n_bricks,
              "adaptive: level map does not match the brick grid");
  const int top = max_level(cfg.brick);
  int n_levels = 1;
  for (const std::uint8_t l : levels.level) {
    MRC_REQUIRE(static_cast<int>(l) <= top,
                "adaptive: brick level exceeds max_level(brick)");
    n_levels = std::max(n_levels, static_cast<int>(l) + 1);
  }

  // One stateless compressor instance serves every pool lane.
  CodecTuning tuning = cfg.tuning;
  tuning.threads = 1;
  const auto codec = registry().make(cfg.codec, tuning);

  std::vector<Bytes> streams(static_cast<std::size_t>(n_bricks));
  std::vector<BrickEntry> entries(static_cast<std::size_t>(n_bricks));

  exec::parallel_for(n_bricks, [&](index_t t) {
    static obs::Counter& bricks =
        obs::Registry::global().counter("mrc.adaptive.bricks_compressed");
    bricks.add(1);
    OBS_SPAN("adaptive.brick_compress");
    const Coord3 tc = tiled::tile_coord(grid, t);
    const Coord3 o{tc.x * cfg.brick, tc.y * cfg.brick, tc.z * cfg.brick};
    const int level = static_cast<int>(levels.level[static_cast<std::size_t>(t)]);
    const Dim3 sf = brick_fine_extent(d, o, cfg.brick, level);

    FieldF b = extract_region(f, o, sf);
    // Restriction chain: pad odd extents to even so every coarse sample
    // averages a full 2x2x2 box, then halve. Extents follow ceil_div, same
    // as an unpadded restrict_half — padding only changes boundary values.
    for (int l = 0; l < level; ++l) b = restrict_half(pad_to_even(b, cfg.pad_kind));

    BrickEntry& e = entries[static_cast<std::size_t>(t)];
    e.level = level;
    e.origin = o;
    e.stored = b.dims();
    const auto [lo, hi] = b.min_max();
    e.vmin = lo;
    e.vmax = hi;
    if (level == 0) {
      e.approx_err = static_cast<float>(abs_eb);
    } else {
      // Downsampling error over the brick's own fine region, measured on the
      // pre-codec restriction (the codec adds at most eb on top).
      e.approx_err = static_cast<float>(
          prolong_error_slab(b, extract_region(f, o, sf), 0, sf.nz) + abs_eb);
    }
    streams[static_cast<std::size_t>(t)] = codec->compress(b, abs_eb);
  }, cfg.threads);

  std::uint64_t payload_bytes = 0;
  for (index_t t = 0; t < n_bricks; ++t) {
    auto& e = entries[static_cast<std::size_t>(t)];
    e.offset = payload_bytes;
    e.length = streams[static_cast<std::size_t>(t)].size();
    payload_bytes += e.length;
  }

  Bytes out;
  ByteWriter w(out);
  mrc::detail::write_header(w, kAdaptiveMagic, d, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(cfg.brick));
  w.put_varint(static_cast<std::uint64_t>(kOverlap));
  w.put(registry().find(cfg.codec)->magic);
  w.put_varint(static_cast<std::uint64_t>(n_levels));
  w.put_varint(static_cast<std::uint64_t>(grid.nx));
  w.put_varint(static_cast<std::uint64_t>(grid.ny));
  w.put_varint(static_cast<std::uint64_t>(grid.nz));
  w.put_varint(payload_bytes);
  for (const BrickEntry& e : entries) {
    w.put_varint(static_cast<std::uint64_t>(e.level));
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.stored.nx));
    w.put_varint(static_cast<std::uint64_t>(e.stored.ny));
    w.put_varint(static_cast<std::uint64_t>(e.stored.nz));
    w.put(e.vmin);
    w.put(e.vmax);
    w.put(e.approx_err);
  }
  for (const Bytes& s : streams) w.put_bytes(s);
  return out;
}

namespace {

/// Shared preamble parse; leaves `r` positioned at the first brick record.
Index parse_geometry(ByteReader& r) {
  const auto header = mrc::detail::read_header(r, kAdaptiveMagic, "adaptive");

  Index idx;
  idx.dims = header.dims;
  idx.eb = header.eb;
  idx.brick = static_cast<index_t>(r.get_varint());
  if (idx.brick < 1 || idx.brick > (index_t{1} << 40))
    throw CodecError("adaptive: bad brick edge");
  idx.overlap = static_cast<index_t>(r.get_varint());
  // Every geometry formula below (brick_fine_extent / brick_stored_extent,
  // hence stored-extent validation, reconstruction and blending) is defined
  // in terms of kOverlap; a stream claiming anything else is either corrupt
  // or from a future format this reader cannot serve correctly.
  if (idx.overlap != kOverlap) throw CodecError("adaptive: unsupported overlap");
  idx.codec_magic = r.get<std::uint32_t>();
  const auto* entry = registry().find_magic(idx.codec_magic);
  idx.codec = entry != nullptr ? entry->name : magic_hex(idx.codec_magic);

  const std::uint64_t n_levels = r.get_varint();
  if (n_levels < 1 || n_levels > static_cast<std::uint64_t>(kMaxLevels))
    throw CodecError("adaptive: bad level count");
  idx.n_levels = static_cast<int>(n_levels);

  idx.grid.nx = static_cast<index_t>(r.get_varint());
  idx.grid.ny = static_cast<index_t>(r.get_varint());
  idx.grid.nz = static_cast<index_t>(r.get_varint());
  if (idx.grid != blocks_for(idx.dims, idx.brick))
    throw CodecError("adaptive: brick grid does not match extents / brick edge");
  idx.payload_bytes = r.get_varint();
  return idx;
}

}  // namespace

Index read_geometry(std::span<const std::byte> stream) {
  ByteReader r(stream);
  return parse_geometry(r);
}

Index read_index(std::span<const std::byte> stream) {
  ByteReader r(stream);
  Index idx = parse_geometry(r);

  const index_t n_bricks = idx.grid.size();
  // A hostile stream can claim a consistent but astronomically bricked grid;
  // the records must actually fit in the bytes we hold before any
  // allocation is sized from the claim.
  if (static_cast<std::uint64_t>(n_bricks) > r.remaining() / kMinBrickRecord)
    throw CodecError("adaptive: brick count exceeds stream size");
  idx.bricks.resize(static_cast<std::size_t>(n_bricks));
  for (index_t t = 0; t < n_bricks; ++t) {
    BrickEntry& e = idx.bricks[static_cast<std::size_t>(t)];
    const std::uint64_t level = r.get_varint();
    // The level gates shift arithmetic below; reject before using it.
    if (level >= static_cast<std::uint64_t>(idx.n_levels))
      throw CodecError("adaptive: brick " + std::to_string(t) + " level out of range");
    e.level = static_cast<int>(level);
    if ((idx.overlap << e.level) > idx.brick)
      throw CodecError("adaptive: brick " + std::to_string(t) +
                       " level too coarse for the brick edge");
    e.offset = r.get_varint();
    e.length = r.get_varint();
    e.stored.nx = static_cast<index_t>(r.get_varint());
    e.stored.ny = static_cast<index_t>(r.get_varint());
    e.stored.nz = static_cast<index_t>(r.get_varint());
    e.vmin = r.get<float>();
    e.vmax = r.get<float>();
    e.approx_err = r.get<float>();

    // Origin and stored extents are pure functions of (dims, brick, overlap,
    // level) — anything else means a corrupt index.
    e.origin = idx.origin(static_cast<std::size_t>(t));
    if (e.stored != brick_stored_extent(idx.dims, e.origin, idx.brick, e.level))
      throw CodecError("adaptive: brick " + std::to_string(t) +
                       " stored extents corrupt");
    if (e.length == 0 || e.offset > idx.payload_bytes ||
        e.length > idx.payload_bytes - e.offset)
      throw CodecError("adaptive: brick " + std::to_string(t) +
                       " offset/length out of range");
  }

  idx.payload_offset = r.position();
  if (r.remaining() < idx.payload_bytes) throw CodecError("adaptive: payload truncated");
  return idx;
}

FieldF decode_brick(const Index& idx, const Compressor& codec,
                    std::span<const std::byte> stream, std::size_t t) {
  MRC_REQUIRE(t < idx.bricks.size(), "decode_brick: brick id out of range");
  static obs::Counter& bricks =
      obs::Registry::global().counter("mrc.adaptive.bricks_decoded");
  bricks.add(1);
  OBS_SPAN("adaptive.brick_decode");
  const BrickEntry& e = idx.bricks[t];
  const auto payload = stream.subspan(idx.payload_offset,
                                      static_cast<std::size_t>(idx.payload_bytes));
  const auto brick_stream = payload.subspan(static_cast<std::size_t>(e.offset),
                                            static_cast<std::size_t>(e.length));
  const FieldF b = codec.decompress(brick_stream);
  if (b.dims() != e.stored)
    throw CodecError("adaptive: brick " + std::to_string(t) + " decodes to " +
                     b.dims().str() + ", index says " + e.stored.str());
  return b;
}

FieldF reconstruct_brick(const Index& idx, std::size_t t, const FieldF& decoded) {
  MRC_REQUIRE(t < idx.bricks.size(), "reconstruct_brick: brick id out of range");
  const BrickEntry& e = idx.bricks[t];
  MRC_REQUIRE(decoded.dims() == e.stored, "reconstruct_brick: extents mismatch");
  if (e.level == 0) return decoded;
  return prolong_trilinear(decoded, idx.fine_extent(t));
}

std::vector<index_t> bricks_for_region(const Index& idx, const tiled::Box& region) {
  const Dim3 ext = region.extent();
  MRC_REQUIRE(region.lo.x >= 0 && region.lo.y >= 0 && region.lo.z >= 0 && ext.nx > 0 &&
                  ext.ny > 0 && ext.nz > 0 && region.hi.x <= idx.dims.nx &&
                  region.hi.y <= idx.dims.ny && region.hi.z <= idx.dims.nz,
              "adaptive: region must be a non-empty box inside " + idx.dims.str());
  const Dim3 g = idx.grid;
  const index_t tx0 = region.lo.x / idx.brick, tx1 = ceil_div(region.hi.x, idx.brick);
  const index_t ty0 = region.lo.y / idx.brick, ty1 = ceil_div(region.hi.y, idx.brick);
  const index_t tz0 = region.lo.z / idx.brick, tz1 = ceil_div(region.hi.z, idx.brick);
  // Dedup bitmap over the owner box expanded one brick on the low sides —
  // the only bricks a read can touch — so the cost is O(hit), not O(grid):
  // a small warm viewport query must stay cheap on a huge brick lattice.
  const index_t ex0 = std::max<index_t>(0, tx0 - 1);
  const index_t ey0 = std::max<index_t>(0, ty0 - 1);
  const index_t ez0 = std::max<index_t>(0, tz0 - 1);
  const Dim3 e{tx1 - ex0, ty1 - ey0, tz1 - ez0};
  std::vector<std::uint8_t> need(static_cast<std::size_t>(e.size()), 0);
  const auto slot = [&](index_t tx, index_t ty, index_t tz) {
    return static_cast<std::size_t>((tx - ex0) +
                                    e.nx * ((ty - ey0) + e.ny * (tz - ez0)));
  };
  for (index_t tz = tz0; tz < tz1; ++tz)
    for (index_t ty = ty0; ty < ty1; ++ty)
      for (index_t tx = tx0; tx < tx1; ++tx) {
        need[slot(tx, ty, tz)] = 1;
        const index_t t = tx + g.nx * (ty + g.ny * tz);
        if (idx.bricks[static_cast<std::size_t>(t)].level == 0) continue;
        // A coarse owner blends with any brick whose stored region covers
        // its core — only the seven low-side neighbors can (the scaled
        // overlap never reaches past one brick).
        for (int dz = -1; dz <= 0; ++dz)
          for (int dy = -1; dy <= 0; ++dy)
            for (int dx = -1; dx <= 0; ++dx) {
              const index_t nx = tx + dx, ny = ty + dy, nz = tz + dz;
              if (nx < 0 || ny < 0 || nz < 0) continue;
              need[slot(nx, ny, nz)] = 1;
            }
      }
  std::vector<index_t> out;
  for (index_t tz = ez0; tz < tz1; ++tz)
    for (index_t ty = ey0; ty < ty1; ++ty)
      for (index_t tx = ex0; tx < tx1; ++tx)
        if (need[slot(tx, ty, tz)] != 0) out.push_back(tx + g.nx * (ty + g.ny * tz));
  return out;
}

namespace detail {

void assemble_region(const Index& idx, const tiled::Box& region,
                     const std::function<const FieldF&(index_t)>& recon, FieldF& out) {
  const Dim3 g = idx.grid;
  const index_t tx0 = region.lo.x / idx.brick, tx1 = ceil_div(region.hi.x, idx.brick);
  const index_t ty0 = region.lo.y / idx.brick, ty1 = ceil_div(region.hi.y, idx.brick);
  const index_t tz0 = region.lo.z / idx.brick, tz1 = ceil_div(region.hi.z, idx.brick);
  for (index_t tz = tz0; tz < tz1; ++tz)
    for (index_t ty = ty0; ty < ty1; ++ty)
      for (index_t tx = tx0; tx < tx1; ++tx) {
        const auto t = static_cast<std::size_t>(tx + g.nx * (ty + g.ny * tz));
        const BrickEntry& e = idx.bricks[t];
        const FieldF& b = recon(static_cast<index_t>(t));
        const Dim3 core = idx.core_extent(t);
        if (e.level == 0) {
          // Fine owner: its core samples are the reconstruction, bit for bit.
          tiled::copy_core(b, e.origin, core, region, out);
          continue;
        }
        const index_t x0 = std::max(e.origin.x, region.lo.x);
        const index_t x1 = std::min(e.origin.x + core.nx, region.hi.x);
        const index_t y0 = std::max(e.origin.y, region.lo.y);
        const index_t y1 = std::min(e.origin.y + core.ny, region.hi.y);
        const index_t z0 = std::max(e.origin.z, region.lo.z);
        const index_t z1 = std::min(e.origin.z + core.nz, region.hi.z);

        // Coarse owner: blend with every low-side neighbor whose stored
        // region covers the sample. Gather the candidate neighbors once.
        struct Contributor {
          const FieldF* field;
          Coord3 origin;
          Dim3 fine;  ///< fine extents of the neighbor's stored region
        };
        std::vector<Contributor> nbrs;
        for (int dz = -1; dz <= 0; ++dz)
          for (int dy = -1; dy <= 0; ++dy)
            for (int dx = -1; dx <= 0; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const index_t nx = tx + dx, ny = ty + dy, nz = tz + dz;
              if (nx < 0 || ny < 0 || nz < 0) continue;
              const auto nt = static_cast<std::size_t>(nx + g.nx * (ny + g.ny * nz));
              nbrs.push_back({&recon(static_cast<index_t>(nt)), idx.origin(nt),
                              idx.fine_extent(nt)});
            }

        for (index_t z = z0; z < z1; ++z)
          for (index_t y = y0; y < y1; ++y)
            for (index_t x = x0; x < x1; ++x) {
              double sum = b.at(x - e.origin.x, y - e.origin.y, z - e.origin.z);
              int cnt = 1;
              for (const Contributor& c : nbrs) {
                const index_t lx = x - c.origin.x, ly = y - c.origin.y,
                              lz = z - c.origin.z;
                if (lx < c.fine.nx && ly < c.fine.ny && lz < c.fine.nz) {
                  sum += c.field->at(lx, ly, lz);
                  ++cnt;
                }
              }
              out.at(x - region.lo.x, y - region.lo.y, z - region.lo.z) =
                  static_cast<float>(sum / cnt);
            }
      }
}

}  // namespace detail

tiled::RegionRead read_region(std::span<const std::byte> stream, const tiled::Box& region,
                              int threads) {
  const Index idx = read_index(stream);
  const std::vector<index_t> need = bricks_for_region(idx, region);

  tiled::RegionRead out;
  out.data = FieldF(region.extent());
  out.tiles_total = idx.bricks.size();
  out.tiles_decoded = need.size();

  const auto codec = registry().make_for_magic(idx.codec_magic);
  std::vector<FieldF> recon(need.size());
  std::unordered_map<index_t, std::size_t> slot;
  slot.reserve(need.size());
  for (std::size_t i = 0; i < need.size(); ++i) slot.emplace(need[i], i);
  exec::parallel_for(static_cast<index_t>(need.size()), [&](index_t i) {
    const auto t = static_cast<std::size_t>(need[static_cast<std::size_t>(i)]);
    recon[static_cast<std::size_t>(i)] =
        reconstruct_brick(idx, t, decode_brick(idx, *codec, stream, t));
  }, threads);

  detail::assemble_region(
      idx, region, [&](index_t t) -> const FieldF& { return recon[slot.at(t)]; },
      out.data);
  return out;
}

FieldF decompress(std::span<const std::byte> stream, int threads) {
  const StreamHeader h = peek_header(stream);
  return adaptive::read_region(stream, tiled::full_box(h.dims), threads).data;
}

std::vector<std::size_t> level_histogram(const Index& idx) {
  std::vector<std::size_t> hist(static_cast<std::size_t>(idx.n_levels), 0);
  for (const BrickEntry& e : idx.bricks) ++hist[static_cast<std::size_t>(e.level)];
  return hist;
}

std::vector<std::uint64_t> level_bytes(const Index& idx) {
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(idx.n_levels), 0);
  for (const BrickEntry& e : idx.bricks)
    bytes[static_cast<std::size_t>(e.level)] += e.length;
  return bytes;
}

}  // namespace mrc::adaptive
