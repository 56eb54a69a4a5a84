#include "tiled/tiled.h"

#include <algorithm>
#include <cstdio>

#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace mrc::tiled {

Coord3 tile_coord(const Dim3& grid, index_t t) {
  return {t % grid.nx, (t / grid.nx) % grid.ny, t / (grid.nx * grid.ny)};
}

void copy_core(const FieldF& brick, const Coord3& origin, const Dim3& core,
               const Box& box, FieldF& out) {
  const index_t x0 = std::max(origin.x, box.lo.x);
  const index_t x1 = std::min(origin.x + core.nx, box.hi.x);
  const index_t y0 = std::max(origin.y, box.lo.y);
  const index_t y1 = std::min(origin.y + core.ny, box.hi.y);
  const index_t z0 = std::max(origin.z, box.lo.z);
  const index_t z1 = std::min(origin.z + core.nz, box.hi.z);
  for (index_t z = z0; z < z1; ++z)
    for (index_t y = y0; y < y1; ++y)
      std::copy_n(&brick.at(x0 - origin.x, y - origin.y, z - origin.z), x1 - x0,
                  &out.at(x0 - box.lo.x, y - box.lo.y, z - box.lo.z));
}

namespace {

/// Stored extents of the brick at core origin `o`: core + overlap, clipped
/// to the domain.
Dim3 stored_extent(const Dim3& dims, const Coord3& o, index_t brick, index_t overlap) {
  return {std::min(brick + overlap, dims.nx - o.x),
          std::min(brick + overlap, dims.ny - o.y),
          std::min(brick + overlap, dims.nz - o.z)};
}

std::string magic_hex(std::uint32_t magic) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", magic);
  return buf;
}

/// Smallest possible index record: 8 single-byte varints + two f32s.
inline constexpr std::size_t kMinTileRecord = 16;

}  // namespace

FieldF decode_tile(const Index& idx, const Compressor& codec,
                   std::span<const std::byte> stream, std::size_t t) {
  MRC_REQUIRE(t < idx.tiles.size(), "decode_tile: tile id out of range");
  static obs::Counter& bricks =
      obs::Registry::global().counter("mrc.tiled.bricks_decoded");
  bricks.add(1);
  OBS_SPAN("tiled.brick_decode");
  const TileEntry& e = idx.tiles[t];
  const auto payload = stream.subspan(idx.payload_offset,
                                      static_cast<std::size_t>(idx.payload_bytes));
  const auto brick_stream =
      payload.subspan(static_cast<std::size_t>(e.offset), static_cast<std::size_t>(e.length));
  const FieldF b = codec.decompress(brick_stream);
  if (b.dims() != e.stored)
    throw CodecError("tiled: brick " + std::to_string(t) + " decodes to " +
                     b.dims().str() + ", index says " + e.stored.str());
  return b;
}

std::vector<index_t> tiles_in_region(const Index& idx, const Box& region) {
  const Dim3 ext = region.extent();
  MRC_REQUIRE(region.lo.x >= 0 && region.lo.y >= 0 && region.lo.z >= 0 &&
                  ext.nx > 0 && ext.ny > 0 && ext.nz > 0 && region.hi.x <= idx.dims.nx &&
                  region.hi.y <= idx.dims.ny && region.hi.z <= idx.dims.nz,
              "tiles_in_region: region must be a non-empty box inside " + idx.dims.str());
  const index_t tx0 = region.lo.x / idx.brick, tx1 = ceil_div(region.hi.x, idx.brick);
  const index_t ty0 = region.lo.y / idx.brick, ty1 = ceil_div(region.hi.y, idx.brick);
  const index_t tz0 = region.lo.z / idx.brick, tz1 = ceil_div(region.hi.z, idx.brick);
  std::vector<index_t> hit;
  hit.reserve(static_cast<std::size_t>((tx1 - tx0) * (ty1 - ty0) * (tz1 - tz0)));
  for (index_t tz = tz0; tz < tz1; ++tz)
    for (index_t ty = ty0; ty < ty1; ++ty)
      for (index_t tx = tx0; tx < tx1; ++tx)
        hit.push_back(tx + idx.grid.nx * (ty + idx.grid.ny * tz));
  return hit;
}

Dim3 Index::core_extent(std::size_t t) const {
  const Coord3 tc = tile_coord(grid, static_cast<index_t>(t));
  return {std::min(brick, dims.nx - tc.x * brick), std::min(brick, dims.ny - tc.y * brick),
          std::min(brick, dims.nz - tc.z * brick)};
}

Bytes compress(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "tiled: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "tiled: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "tiled: brick edge must be >= 1");
  const Dim3 d = f.dims();
  const Dim3 grid = blocks_for(d, cfg.brick);
  const index_t n_tiles = grid.size();

  // The pool parallelises across bricks; each brick's codec runs serially.
  // One compressor instance serves every lane — they are stateless and
  // compress() is const.
  CodecTuning tuning = cfg.tuning;
  tuning.threads = 1;
  const auto codec = registry().make(cfg.codec, tuning);

  std::vector<Bytes> streams(static_cast<std::size_t>(n_tiles));
  std::vector<TileEntry> entries(static_cast<std::size_t>(n_tiles));

  exec::parallel_for(n_tiles, [&](index_t t) {
    static obs::Counter& bricks =
        obs::Registry::global().counter("mrc.tiled.bricks_compressed");
    bricks.add(1);
    OBS_SPAN("tiled.brick_compress");
    const Coord3 tc = tile_coord(grid, t);
    const Coord3 o{tc.x * cfg.brick, tc.y * cfg.brick, tc.z * cfg.brick};
    const Dim3 s = stored_extent(d, o, cfg.brick, kOverlap);

    // Per-lane brick buffer: lent to a FieldF for the codec call and taken
    // back afterwards, so gathering N bricks costs one allocation per lane
    // instead of one per brick.
    thread_local std::vector<float> brick_scratch;
    brick_scratch.resize(static_cast<std::size_t>(s.size()));
    FieldF b(s, std::move(brick_scratch));
    for (index_t z = 0; z < s.nz; ++z)
      for (index_t y = 0; y < s.ny; ++y)
        std::copy_n(&f.at(o.x, o.y + y, o.z + z), s.nx, &b.at(0, y, z));

    TileEntry& e = entries[static_cast<std::size_t>(t)];
    e.origin = o;
    e.stored = s;
    const auto [lo, hi] = b.min_max();
    e.vmin = lo;
    e.vmax = hi;
    streams[static_cast<std::size_t>(t)] = codec->compress(b, abs_eb);
    brick_scratch = b.release();
  }, cfg.threads);

  std::uint64_t payload_bytes = 0;
  for (index_t t = 0; t < n_tiles; ++t) {
    auto& e = entries[static_cast<std::size_t>(t)];
    e.offset = payload_bytes;
    e.length = streams[static_cast<std::size_t>(t)].size();
    payload_bytes += e.length;
  }

  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kTiledMagic, d, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(cfg.brick));
  w.put_varint(static_cast<std::uint64_t>(kOverlap));
  w.put(registry().find(cfg.codec)->magic);
  w.put_varint(static_cast<std::uint64_t>(grid.nx));
  w.put_varint(static_cast<std::uint64_t>(grid.ny));
  w.put_varint(static_cast<std::uint64_t>(grid.nz));
  w.put_varint(payload_bytes);
  for (const TileEntry& e : entries) {
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.origin.x));
    w.put_varint(static_cast<std::uint64_t>(e.origin.y));
    w.put_varint(static_cast<std::uint64_t>(e.origin.z));
    w.put_varint(static_cast<std::uint64_t>(e.stored.nx));
    w.put_varint(static_cast<std::uint64_t>(e.stored.ny));
    w.put_varint(static_cast<std::uint64_t>(e.stored.nz));
    w.put(e.vmin);
    w.put(e.vmax);
  }
  for (const Bytes& s : streams) w.put_bytes(s);
  return out;
}

namespace {

/// Shared preamble parse; leaves `r` positioned at the first tile record.
Index parse_geometry(ByteReader& r) {
  const auto header = detail::read_header(r, kTiledMagic, "tiled");

  Index idx;
  idx.dims = header.dims;
  idx.eb = header.eb;
  idx.brick = static_cast<index_t>(r.get_varint());
  idx.overlap = static_cast<index_t>(r.get_varint());
  // Brick edges beyond the domain are legal (single-tile stream); the cap
  // only guards the brick+overlap arithmetic against overflow.
  if (idx.brick < 1 || idx.brick > (index_t{1} << 40))
    throw CodecError("tiled: bad brick edge");
  if (idx.overlap < 0 || idx.overlap > idx.brick)
    throw CodecError("tiled: bad overlap");
  idx.codec_magic = r.get<std::uint32_t>();
  const auto* entry = registry().find_magic(idx.codec_magic);
  idx.codec = entry != nullptr ? entry->name : magic_hex(idx.codec_magic);

  idx.grid.nx = static_cast<index_t>(r.get_varint());
  idx.grid.ny = static_cast<index_t>(r.get_varint());
  idx.grid.nz = static_cast<index_t>(r.get_varint());
  if (idx.grid != blocks_for(idx.dims, idx.brick))
    throw CodecError("tiled: tile grid does not match extents / brick edge");
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

  const index_t n_tiles = idx.grid.size();
  // A hostile stream can claim a consistent but astronomically tiled grid;
  // the records must actually fit in the bytes we hold before any
  // allocation is sized from the claim.
  if (static_cast<std::uint64_t>(n_tiles) > r.remaining() / kMinTileRecord)
    throw CodecError("tiled: tile count exceeds stream size");
  idx.tiles.resize(static_cast<std::size_t>(n_tiles));
  for (index_t t = 0; t < n_tiles; ++t) {
    TileEntry& e = idx.tiles[static_cast<std::size_t>(t)];
    e.offset = r.get_varint();
    e.length = r.get_varint();
    e.origin.x = static_cast<index_t>(r.get_varint());
    e.origin.y = static_cast<index_t>(r.get_varint());
    e.origin.z = static_cast<index_t>(r.get_varint());
    e.stored.nx = static_cast<index_t>(r.get_varint());
    e.stored.ny = static_cast<index_t>(r.get_varint());
    e.stored.nz = static_cast<index_t>(r.get_varint());
    e.vmin = r.get<float>();
    e.vmax = r.get<float>();

    // Each tile's core is pinned to the brick lattice and its stored extents
    // are a pure function of (dims, brick, overlap) — anything else means a
    // corrupt index (misplaced or overlapping bricks).
    const Coord3 tc = tile_coord(idx.grid, t);
    const Coord3 expect{tc.x * idx.brick, tc.y * idx.brick, tc.z * idx.brick};
    if (e.origin != expect)
      throw CodecError("tiled: tile " + std::to_string(t) + " origin off-lattice");
    if (e.stored != stored_extent(idx.dims, e.origin, idx.brick, idx.overlap))
      throw CodecError("tiled: tile " + std::to_string(t) + " stored extents corrupt");
    if (e.length == 0 || e.offset > idx.payload_bytes ||
        e.length > idx.payload_bytes - e.offset)
      throw CodecError("tiled: tile " + std::to_string(t) + " offset/length out of range");
  }

  idx.payload_offset = r.position();
  if (r.remaining() < idx.payload_bytes) throw CodecError("tiled: payload truncated");
  return idx;
}

RegionRead read_region(std::span<const std::byte> stream, const Box& region, int threads) {
  const Index idx = read_index(stream);
  const std::vector<index_t> hit = tiles_in_region(idx, region);

  RegionRead out;
  out.data = FieldF(region.extent());
  out.tiles_total = idx.tiles.size();
  out.tiles_decoded = hit.size();

  const auto codec = registry().make_for_magic(idx.codec_magic);
  exec::parallel_for(static_cast<index_t>(hit.size()), [&](index_t i) {
    const auto t = static_cast<std::size_t>(hit[static_cast<std::size_t>(i)]);
    copy_core(decode_tile(idx, *codec, stream, t), idx.tiles[t].origin,
              idx.core_extent(t), region, out.data);
  }, threads);
  return out;
}

FieldF decompress(std::span<const std::byte> stream, int threads) {
  const StreamHeader h = peek_header(stream);
  return read_region(stream, full_box(h.dims), threads).data;
}

}  // namespace mrc::tiled
