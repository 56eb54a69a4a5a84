#include "core/sz3mr.h"

#include <algorithm>

#include "exec/thread_pool.h"
#include "postproc/sampler.h"

namespace mrc::sz3mr {

namespace {

std::unique_ptr<Compressor> make_interp(const Config& cfg) {
  CodecTuning t;
  t.quant_radius = cfg.quant_radius;
  t.adaptive_eb = cfg.adaptive_eb;
  t.alpha = cfg.alpha;
  t.beta = cfg.beta;
  t.threads = exec::lanes_for(cfg.threads);
  return registry().make("interp", t);
}

bool should_pad(const Config& cfg, index_t unit) {
  return cfg.pad && cfg.merge == MergeKind::linear && unit >= kMinPadUnit;
}

/// Reads a TAC level's box records and decodes each box. The boxes must tile
/// exactly the listed blocks, each inside the block grid with extent·u
/// samples per axis; anything else is a malformed stream.
std::vector<TacBox> read_tac_boxes(ByteReader& r, const UnitBlockSet& set,
                                   const Compressor& interp) {
  const std::uint64_t n_boxes = r.get_varint();
  if (n_boxes > static_cast<std::uint64_t>(set.block_count()))
    throw CodecError("sz3mr: more tac boxes than blocks");
  const Dim3 grid = set.block_grid;
  // 1 = listed and not yet covered by a box.
  std::vector<std::uint8_t> open(static_cast<std::size_t>(grid.size()), 0);
  for (const index_t id : set.block_ids) open[static_cast<std::size_t>(id)] = 1;
  std::vector<TacBox> boxes(static_cast<std::size_t>(n_boxes));
  index_t covered = 0;
  for (TacBox& box : boxes) {
    std::uint64_t v[6];
    for (std::uint64_t& x : v) x = r.get_varint();
    for (int a = 0; a < 3; ++a) {
      const auto n = static_cast<std::uint64_t>(grid[a]);
      if (v[a] >= n || v[3 + a] == 0 || v[3 + a] > n - v[a])
        throw CodecError("sz3mr: tac box outside the block grid");
    }
    box.origin_blocks = {static_cast<index_t>(v[0]), static_cast<index_t>(v[1]),
                         static_cast<index_t>(v[2])};
    box.extent_blocks = {static_cast<index_t>(v[3]), static_cast<index_t>(v[4]),
                         static_cast<index_t>(v[5])};
    const Coord3 o = box.origin_blocks;
    const Dim3 e = box.extent_blocks;
    for (index_t z = o.z; z < o.z + e.nz; ++z)
      for (index_t y = o.y; y < o.y + e.ny; ++y)
        for (index_t x = o.x; x < o.x + e.nx; ++x) {
          std::uint8_t& slot = open[static_cast<std::size_t>(grid.index(x, y, z))];
          if (slot != 1) throw CodecError("sz3mr: tac box over an unlisted or covered block");
          slot = 0;
          ++covered;
        }
    box.data = interp.decompress(r.get_blob());
    const index_t u = set.unit;
    if (box.data.dims() != Dim3(e.nx * u, e.ny * u, e.nz * u))
      throw CodecError("sz3mr: tac box samples do not match its extent");
  }
  if (covered != set.block_count())
    throw CodecError("sz3mr: tac boxes leave a listed block uncovered");
  return boxes;
}

}  // namespace

Config baseline_sz3() {
  Config c;
  c.pad = false;
  c.adaptive_eb = false;
  return c;
}

Config amric_sz3() {
  Config c;
  c.merge = MergeKind::stack;
  c.pad = false;
  c.adaptive_eb = false;
  return c;
}

Config tac_sz3() {
  Config c;
  c.merge = MergeKind::tac;
  c.pad = false;
  c.adaptive_eb = false;
  return c;
}

Config ours_pad() {
  Config c;
  c.pad = true;
  c.adaptive_eb = false;
  return c;
}

Config ours_pad_eb() {
  Config c;
  c.pad = true;
  c.adaptive_eb = true;
  return c;
}

Config ours_processed() {
  Config c = ours_pad_eb();
  c.postprocess = true;
  return c;
}

PreparedLevel prepare_level(const LevelData& level, index_t unit, const Config& cfg) {
  PreparedLevel prep;
  prep.cfg = cfg;
  prep.ratio = level.ratio;
  // Occupancy scan only; each gather below reads the level grid directly so
  // pre-processing is a single pass (the Table IV "collect data" phase).
  prep.set = scan_unit_blocks(level, unit);
  if (prep.set.block_count() == 0) return prep;

  switch (cfg.merge) {
    case MergeKind::linear:
      prep.padded = should_pad(cfg, unit);
      prep.merged = gather_linear(level, prep.set, prep.padded, cfg.pad_kind, cfg.threads);
      break;
    case MergeKind::stack:
      prep.merged = gather_stack(level, prep.set);
      break;
    case MergeKind::tac:
      prep.boxes = gather_tac(level, prep.set);
      break;
  }
  return prep;
}

Bytes encode_prepared(const PreparedLevel& prep, double abs_eb) {
  const Config& cfg = prep.cfg;
  const UnitBlockSet& set = prep.set;

  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kLevelMagic, set.level_dims, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(prep.ratio));
  w.put_varint(static_cast<std::uint64_t>(set.unit));
  w.put(static_cast<std::uint8_t>(cfg.merge));
  w.put(static_cast<std::uint8_t>(prep.padded ? 1 : 0));
  w.put(static_cast<std::uint8_t>(cfg.pad_kind));

  w.put_varint(static_cast<std::uint64_t>(set.block_count()));
  index_t prev = -1;
  for (const index_t id : set.block_ids) {
    w.put_varint(static_cast<std::uint64_t>(id - prev));
    prev = id;
  }
  if (set.block_count() == 0) {
    w.put(static_cast<std::uint8_t>(0));  // no post-process section
    return out;
  }

  const auto interp = make_interp(cfg);

  // Optional sampled Bézier intensities ("Ours (processed)"). The tuning
  // works on the unpadded merged geometry, which is what decompression
  // post-processes after stripping the pad.
  double ax = 0.0, ay = 0.0, az = 0.0;
  if (cfg.postprocess && cfg.merge != MergeKind::tac) {
    const FieldF& tune_src = prep.merged;
    const index_t unit = set.unit;
    const auto plan = postproc::default_sampling(tune_src.dims(), unit);
    const auto samples =
        postproc::draw_sample_blocks(tune_src, plan.block_edge, plan.count, /*seed=*/42);
    const auto tuned = postproc::tune_intensity(samples, *interp, abs_eb, unit,
                                                postproc::sz_candidates());
    ax = tuned.ax;
    ay = tuned.ay;
    az = tuned.az;
  }
  w.put(static_cast<std::uint8_t>(cfg.postprocess ? 1 : 0));
  if (cfg.postprocess) {
    w.put(ax);
    w.put(ay);
    w.put(az);
  }

  if (cfg.merge == MergeKind::tac) {
    w.put_varint(prep.boxes.size());
    for (const TacBox& box : prep.boxes) {
      w.put_varint(static_cast<std::uint64_t>(box.origin_blocks.x));
      w.put_varint(static_cast<std::uint64_t>(box.origin_blocks.y));
      w.put_varint(static_cast<std::uint64_t>(box.origin_blocks.z));
      w.put_varint(static_cast<std::uint64_t>(box.extent_blocks.nx));
      w.put_varint(static_cast<std::uint64_t>(box.extent_blocks.ny));
      w.put_varint(static_cast<std::uint64_t>(box.extent_blocks.nz));
      w.put_blob(interp->compress(box.data, abs_eb));
    }
  } else {
    w.put_blob(interp->compress(prep.merged, abs_eb));
  }
  return out;
}

Bytes compress_level(const LevelData& level, index_t unit, double abs_eb,
                     const Config& cfg) {
  return encode_prepared(prepare_level(level, unit, cfg), abs_eb);
}

LevelData decompress_level(std::span<const std::byte> stream, int threads) {
  ByteReader r(stream);
  const auto header = detail::read_header(r, kLevelMagic, "sz3mr");
  const Dim3 ld = header.dims;
  const double eb = header.eb;

  UnitBlockSet set;
  const auto ratio = static_cast<index_t>(r.get_varint());
  const auto unit = static_cast<index_t>(r.get_varint());
  if (unit <= 0 || unit > ld.max_extent() || ratio <= 0)
    throw CodecError("sz3mr: bad unit/ratio");
  // The encoder tiles the level with whole blocks; a partial block would
  // have the scatter write past the level grid.
  if (ld.nx % unit != 0 || ld.ny % unit != 0 || ld.nz % unit != 0)
    throw CodecError("sz3mr: level extents not divisible by unit");
  const auto merge_byte = r.get<std::uint8_t>();
  if (merge_byte > static_cast<std::uint8_t>(MergeKind::tac))
    throw CodecError("sz3mr: unknown merge layout");
  const auto merge = static_cast<MergeKind>(merge_byte);
  const bool padded = r.get<std::uint8_t>() != 0;
  if (padded && merge != MergeKind::linear)
    throw CodecError("sz3mr: only a linear merge is padded");
  (void)r.get<std::uint8_t>();  // pad kind (informational; strip is shape-only)

  set.unit = unit;
  set.level_dims = ld;
  set.block_grid = blocks_for(ld, unit);
  const std::uint64_t n_blocks = r.get_varint();
  if (n_blocks > static_cast<std::uint64_t>(set.block_grid.size()))
    throw CodecError("sz3mr: too many blocks");
  index_t prev = -1;
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    const auto delta = static_cast<index_t>(r.get_varint());
    if (delta <= 0) throw CodecError("sz3mr: non-increasing block ids");
    prev += delta;
    if (prev >= set.block_grid.size()) throw CodecError("sz3mr: block id out of range");
    set.block_ids.push_back(prev);
  }

  LevelData level;
  level.ratio = ratio;
  level.data = FieldF(ld, 0.0f);
  level.mask = MaskField(ld, 0);

  const bool has_post = r.get<std::uint8_t>() != 0;
  double ax = 0.0, ay = 0.0, az = 0.0;
  if (has_post) {
    ax = r.get<double>();
    ay = r.get<double>();
    az = r.get<double>();
  }
  if (n_blocks == 0) return level;

  // Codec config is decoded from the nested payload itself; only the lane
  // count comes from here.
  CodecTuning tuning;
  tuning.threads = exec::lanes_for(threads);
  const auto interp = registry().make("interp", tuning);

  if (merge == MergeKind::tac) {
    scatter_tac(read_tac_boxes(r, set, *interp), set, level);
    return level;
  }
  FieldF merged = interp->decompress(r.get_blob());
  if (merged.dims() != merged_dims(set, merge, padded))
    throw CodecError("sz3mr: merged extents do not match the block list");
  // The Bézier pass needs the unpadded array; otherwise the linear scatter
  // skips the pad layer itself.
  bool pad_left = padded;
  if (has_post && (ax > 0.0 || ay > 0.0 || az > 0.0)) {
    if (padded) merged = strip_pad_xy(merged);
    pad_left = false;
    merged = postproc::bezier_postprocess(merged, {unit, eb, ax, ay, az});
  }
  if (merge == MergeKind::linear)
    scatter_linear(merged, pad_left, set, level, threads);
  else
    scatter_stack(merged, set, level);
  return level;
}

std::size_t MultiResStreams::total_bytes() const {
  std::size_t n = 0;
  for (const auto& s : level_streams) n += s.size();
  return n;
}

MultiResStreams compress_multires(const MultiResField& mr, double abs_eb,
                                  const Config& cfg) {
  // Levels run one after another, each on all cfg.threads lanes: level 0
  // holds most of the samples, and a level per lane would leave its sweeps
  // on one.
  MultiResStreams out;
  for (const auto& level : mr.levels) {
    const index_t unit = std::max<index_t>(mr.block_size / level.ratio, 1);
    out.level_streams.push_back(compress_level(level, unit, abs_eb, cfg));
  }
  return out;
}

MultiResField decompress_multires(const MultiResStreams& streams, int threads) {
  MultiResField mr;
  MRC_REQUIRE(!streams.level_streams.empty(), "no level streams");
  for (const auto& s : streams.level_streams)
    mr.levels.push_back(decompress_level(s, threads));
  mr.fine_dims = mr.levels.front().data.dims();
  // block size = unit of the finest level; recover from its dims/ratio via
  // the coarsest ratio (units halve per level).
  mr.block_size = 0;
  for (const auto& l : mr.levels) mr.block_size = std::max(mr.block_size, l.ratio);
  return mr;
}

double multires_ratio(const MultiResField& mr, const MultiResStreams& s) {
  return static_cast<double>(mr.stored_samples()) * sizeof(float) /
         static_cast<double>(s.total_bytes());
}

}  // namespace mrc::sz3mr
