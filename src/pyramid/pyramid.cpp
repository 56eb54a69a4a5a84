#include "pyramid/pyramid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"

namespace mrc::pyramid {

namespace {

inline constexpr detail::TableFormat kTable{kPyramidMagic, "pyramid", false};

}  // namespace

double prolong_error(const FieldF& coarse, const FieldF& fine, int width) {
  const index_t nz = fine.dims().nz;
  const index_t slabs = exec::slab_count(nz, 4 * exec::lanes_for(width));
  std::vector<double> errs(static_cast<std::size_t>(slabs));
  exec::for_slabs(nz, slabs, [&](index_t s, index_t z0, index_t z1) {
    errs[static_cast<std::size_t>(s)] = prolong_error_slab(coarse, fine, z0, z1);
  }, width);
  return *std::max_element(errs.begin(), errs.end());
}

std::span<const std::byte> Index::level_stream(std::span<const std::byte> stream,
                                               std::size_t l) const {
  MRC_REQUIRE(l < levels.size(), "level_stream: level out of range");
  const LevelEntry& e = levels[l];
  return stream.subspan(payload_offset + static_cast<std::size_t>(e.offset),
                        static_cast<std::size_t>(e.length));
}

Dim3 level_dims(Dim3 fine, int level) {
  MRC_REQUIRE(level >= 0 && level < kMaxLevels, "bad pyramid level");
  Dim3 d = fine;
  for (int l = 0; l < level; ++l) d = blocks_for(d, 2);
  return d;
}

int auto_levels(Dim3 fine, index_t brick) {
  int n = 1;
  Dim3 d = fine;
  while (n < kMaxLevels && d.max_extent() > brick) {
    d = blocks_for(d, 2);
    ++n;
  }
  return n;
}

Bytes build(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "pyramid: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "pyramid: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "pyramid: brick edge must be >= 1");
  MRC_REQUIRE(cfg.levels >= 0 && cfg.levels <= kMaxLevels,
              "pyramid: level count must be in [0, " + std::to_string(kMaxLevels) + "]");
  const Dim3 d = f.dims();
  const int n_levels = cfg.levels == 0 ? auto_levels(d, cfg.brick) : cfg.levels;

  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tc.threads = cfg.threads;

  // restrict_half chain; every level's bricks compress in parallel on the
  // exec pool inside tiled::compress (level 0 holds 8/7 of the total work,
  // so within-level parallelism is the right axis), and the per-level error
  // measurement slabs across a loop of the same width.
  std::vector<Bytes> streams(static_cast<std::size_t>(n_levels));
  std::vector<LevelEntry> entries(static_cast<std::size_t>(n_levels));
  FieldF coarse;  // level l's data for l >= 1
  for (int l = 0; l < n_levels; ++l) {
    OBS_SPAN("pyramid.level_compress");
    if (l > 0) coarse = restrict_half(l == 1 ? f : coarse);
    const FieldF& level = l == 0 ? f : coarse;

    LevelEntry& e = entries[static_cast<std::size_t>(l)];
    e.dims = level.dims();
    const auto [lo, hi] = level.min_max();
    e.vmin = lo;
    e.vmax = hi;
    // The level's fitness for LOD selection: how far a rendering served from
    // this level can sit from the finest grid. Downsampling error is
    // measured against the pre-compression data; the codec adds at most eb.
    e.approx_err = static_cast<float>(
        l == 0 ? abs_eb : prolong_error(level, f, cfg.threads) + abs_eb);
    streams[static_cast<std::size_t>(l)] = tiled::compress(level, abs_eb, tc);
  }

  return detail::write_table(kTable, d, abs_eb, std::move(entries), streams);
}

Index read_geometry(std::span<const std::byte> stream) {
  return detail::read_table(kTable, stream);
}

Index read_index(std::span<const std::byte> stream) {
  return detail::read_table_checked(kTable, stream);
}

FieldF decompress_level(std::span<const std::byte> stream, int level, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "pyramid: level out of range");
  OBS_SPAN("pyramid.level_decode");
  return tiled::decompress(idx.level_stream(stream, static_cast<std::size_t>(level)),
                           threads);
}

tiled::RegionRead read_region(std::span<const std::byte> stream, int level,
                              const tiled::Box& region, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "pyramid: level out of range");
  return tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(level)),
                            region, threads);
}

namespace detail {

namespace {

CodecError table_error(const TableFormat& fmt, const std::string& what) {
  return CodecError(std::string(fmt.name) + ": " + what);
}

}  // namespace

Bytes write_table(const TableFormat& fmt, Dim3 dims, double eb,
                  std::vector<LevelEntry> entries, const std::vector<Bytes>& streams) {
  std::uint64_t payload_bytes = 0;
  for (std::size_t l = 0; l < entries.size(); ++l) {
    entries[l].offset = payload_bytes;
    entries[l].length = streams[l].size();
    payload_bytes += entries[l].length;
  }

  Bytes out;
  ByteWriter w(out);
  mrc::detail::write_header(w, fmt.magic, dims, eb);
  w.put_varint(entries.size());
  w.put_varint(payload_bytes);
  for (const LevelEntry& e : entries) {
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.dims.nx));
    w.put_varint(static_cast<std::uint64_t>(e.dims.ny));
    w.put_varint(static_cast<std::uint64_t>(e.dims.nz));
    w.put(e.vmin);
    w.put(e.vmax);
    if (fmt.residual) {
      w.put(e.resid_max);
      w.put(e.resid_entropy);
      w.put(e.cum_err);
    }
    w.put(e.approx_err);
  }
  for (const Bytes& s : streams) w.put_bytes(s);
  return out;
}

Index read_table(const TableFormat& fmt, std::span<const std::byte> stream) {
  ByteReader r(stream);
  const auto header = mrc::detail::read_header(r, fmt.magic, fmt.name);

  Index idx;
  idx.dims = header.dims;
  idx.eb = header.eb;
  const std::uint64_t n_levels = r.get_varint();
  // A hostile stream can claim any level count; the cap plus the
  // records-must-fit check bound every allocation before it is sized.
  if (n_levels < 1 || n_levels > static_cast<std::uint64_t>(kMaxLevels))
    throw table_error(fmt, "bad level count");
  idx.payload_bytes = r.get_varint();
  // Smallest possible record: 5 single-byte varints + three or six f32s.
  const std::size_t min_record = fmt.residual ? 29 : 17;
  if (n_levels > r.remaining() / min_record)
    throw table_error(fmt, "level count exceeds stream size");

  idx.levels.resize(static_cast<std::size_t>(n_levels));
  Dim3 expect = idx.dims;
  std::uint64_t next_offset = 0;
  for (std::size_t l = 0; l < idx.levels.size(); ++l) {
    LevelEntry& e = idx.levels[l];
    e.offset = r.get_varint();
    e.length = r.get_varint();
    e.dims.nx = static_cast<index_t>(r.get_varint());
    e.dims.ny = static_cast<index_t>(r.get_varint());
    e.dims.nz = static_cast<index_t>(r.get_varint());
    e.vmin = r.get<float>();
    e.vmax = r.get<float>();
    if (fmt.residual) {
      e.resid_max = r.get<float>();
      e.resid_entropy = r.get<float>();
      e.cum_err = r.get<float>();
    }
    e.approx_err = r.get<float>();

    // Levels are pinned to the halving chain and must tile the payload
    // exactly — anything else (overlapping records, gaps, extents that are
    // not the parent's half) means a corrupt or hostile table.
    if (e.dims != expect)
      throw table_error(fmt, "level " + std::to_string(l) + " extents " +
                                 e.dims.str() + " off the halving chain (want " +
                                 expect.str() + ")");
    if (e.offset != next_offset || e.length == 0 ||
        e.length > idx.payload_bytes - e.offset)
      throw table_error(fmt,
                        "level " + std::to_string(l) + " offset/length out of range");
    next_offset = e.offset + e.length;
    expect = blocks_for(expect, 2);
  }
  if (next_offset != idx.payload_bytes)
    throw table_error(fmt, "level streams do not tile the payload");

  idx.payload_offset = r.position();
  if (r.remaining() < idx.payload_bytes) throw table_error(fmt, "payload truncated");

  // Level 0's tiled preamble (O(1) peek) supplies the codec + brick edge and
  // cross-checks the finest extents and error bound.
  const tiled::Index fine = tiled::read_geometry(idx.level_stream(stream, 0));
  if (fine.dims != idx.dims)
    throw table_error(fmt, "level 0 stream extents disagree with the level table");
  if (fine.eb != idx.eb)
    throw table_error(fmt, "level 0 stream error bound disagrees with the header");
  idx.codec = idx.data_codec = fine.codec;
  idx.codec_magic = idx.data_codec_magic = fine.codec_magic;
  idx.brick = fine.brick;
  // MRCR's coarsest level holds data, not residuals, and may use another
  // codec; its preamble supplies that codec.
  if (fmt.residual && idx.levels.size() > 1) {
    const tiled::Index coarse =
        tiled::read_geometry(idx.level_stream(stream, idx.levels.size() - 1));
    if (coarse.dims != idx.levels.back().dims)
      throw table_error(fmt, "coarsest stream extents disagree with the level table");
    if (coarse.eb != idx.eb)
      throw table_error(fmt, "coarsest stream error bound disagrees with the header");
    idx.data_codec = coarse.codec;
    idx.data_codec_magic = coarse.codec_magic;
  }
  return idx;
}

Index read_table_checked(const TableFormat& fmt, std::span<const std::byte> stream) {
  Index idx = read_table(fmt, stream);
  // Every nested stream must be a tiled stream of exactly the level table's
  // extents, the level's codec and the same bound — a mismatch means the
  // table points at the wrong bytes.
  for (std::size_t l = 1; l < idx.levels.size(); ++l) {
    const tiled::Index li = tiled::read_geometry(idx.level_stream(stream, l));
    const std::uint32_t want =
        l == idx.levels.size() - 1 ? idx.data_codec_magic : idx.codec_magic;
    if (li.dims != idx.levels[l].dims)
      throw table_error(fmt, "level " + std::to_string(l) +
                                 " stream extents disagree with the level table");
    if (li.codec_magic != want)
      throw table_error(fmt, "level " + std::to_string(l) + " codec mismatch");
    if (li.eb != idx.eb)
      throw table_error(fmt, "level " + std::to_string(l) + " error bound mismatch");
  }
  return idx;
}

}  // namespace detail

}  // namespace mrc::pyramid
