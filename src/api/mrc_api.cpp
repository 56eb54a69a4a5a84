#include "api/mrc_api.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "exec/thread_pool.h"
#include "io/raw_io.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"
#include "roi/roi_extract.h"
#include "serve/server.h"

namespace mrc::api {

namespace {

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  throw ContractError("options: bad boolean for '" + key + "': " + v);
}

double parse_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size() || v.empty())
    throw ContractError("options: bad number for '" + key + "': " + v);
  return d;
}

index_t parse_index(const std::string& key, const std::string& v, index_t min_value) {
  const double d = parse_double(key, v);
  // Range-check before the cast: double -> int64 of an out-of-range value
  // (e.g. 1e300) is undefined behavior, not merely a wrong number.
  if (!(d >= -9.2e18 && d <= 9.2e18))
    throw ContractError("options: bad integer for '" + key + "': " + v);
  const auto i = static_cast<index_t>(d);
  if (static_cast<double>(i) != d || i < min_value)
    throw ContractError("options: bad integer for '" + key + "': " + v);
  return i;
}

/// parse_index for a field of type T: a value above `max_value` (T's own
/// maximum unless the key has a tighter one) is rejected before the cast,
/// so it can never wrap into range.
template <typename T>
T parse_int(const std::string& key, const std::string& v, T min_value,
            T max_value = std::numeric_limits<T>::max()) {
  const index_t i = parse_index(key, v, static_cast<index_t>(min_value));
  if (i > static_cast<index_t>(max_value))
    throw ContractError("options: " + key + " must be <= " + std::to_string(max_value) +
                        ", got " + v);
  return static_cast<T>(i);
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (std::strtod(buf, nullptr) == v) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* merge_str(MergeKind m) {
  switch (m) {
    case MergeKind::linear: return "linear";
    case MergeKind::stack: return "stack";
    default: return "tac";
  }
}

const char* pad_kind_str(PadKind p) {
  switch (p) {
    case PadKind::constant: return "constant";
    case PadKind::linear: return "linear";
    default: return "quadratic";
  }
}

/// Parses "x0:y0:z0:x1:y1:z1" (':' or ',' separated) into a box.
tiled::Box parse_box(const std::string& key, const std::string& v) {
  std::array<index_t, 6> c{};
  std::size_t pos = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t sep =
        i + 1 < 6 ? std::min(v.find(':', pos), v.find(',', pos)) : std::string::npos;
    const std::string item =
        v.substr(pos, (sep == std::string::npos ? v.size() : sep) - pos);
    c[i] = parse_index(key, item, 0);
    if (i + 1 < 6) {
      if (sep == std::string::npos)
        throw ContractError("options: " + key + " needs x0:y0:z0:x1:y1:z1, got " + v);
      pos = sep + 1;
    }
  }
  return {{c[0], c[1], c[2]}, {c[3], c[4], c[5]}};
}

}  // namespace

void Options::set(const std::string& key, const std::string& value) {
  if (key == "codec") {
    codec = value;
  } else if (key == "eb") {
    eb = parse_double(key, value);
    if (!(eb > 0.0) || !std::isfinite(eb))
      throw ContractError("options: eb must be finite and > 0, got " + value);
  } else if (key == "eb_mode") {
    if (value == "rel" || value == "relative")
      eb_mode = EbMode::relative;
    else if (value == "abs" || value == "absolute")
      eb_mode = EbMode::absolute;
    else
      throw ContractError("options: eb_mode must be rel|abs, got " + value);
  } else if (key == "merge") {
    if (value == "linear")
      merge = MergeKind::linear;
    else if (value == "stack")
      merge = MergeKind::stack;
    else if (value == "tac")
      merge = MergeKind::tac;
    else
      throw ContractError("options: merge must be linear|stack|tac, got " + value);
  } else if (key == "pad") {
    pad = parse_bool(key, value);
  } else if (key == "pad_kind") {
    if (value == "constant")
      pad_kind = PadKind::constant;
    else if (value == "linear")
      pad_kind = PadKind::linear;
    else if (value == "quadratic")
      pad_kind = PadKind::quadratic;
    else
      throw ContractError("options: pad_kind must be constant|linear|quadratic, got " +
                          value);
  } else if (key == "adaptive_eb") {
    adaptive_eb = parse_bool(key, value);
  } else if (key == "alpha") {
    alpha = parse_double(key, value);
    if (!(alpha > 0.0)) throw ContractError("options: alpha must be > 0, got " + value);
  } else if (key == "beta") {
    beta = parse_double(key, value);
    if (!(beta > 0.0)) throw ContractError("options: beta must be > 0, got " + value);
  } else if (key == "quant_radius") {
    quant_radius = parse_int<std::uint32_t>(key, value, 1, lossless::kMaxQuantRadius);
  } else if (key == "postprocess") {
    postprocess = parse_bool(key, value);
  } else if (key == "roi_block") {
    roi_block = parse_index(key, value, 1);
  } else if (key == "roi_fraction") {
    roi_fraction = parse_double(key, value);
    // Negated range check so NaN is rejected too.
    if (!(roi_fraction >= 0.0 && roi_fraction <= 1.0))
      throw ContractError("options: roi_fraction must be in [0,1], got " + value);
  } else if (key == "block_size") {
    block_size = parse_index(key, value, 0);
  } else if (key == "use_regression") {
    use_regression = parse_bool(key, value);
  } else if (key == "threads") {
    threads = parse_int<int>(key, value, 0);  // 0 = hardware
  } else if (key == "entropy_shards") {
    entropy_shards = parse_int<std::uint32_t>(key, value, 1, lossless::kMaxEntropyShards);
  } else if (key == "tile") {
    tile = parse_index(key, value, 1);
  } else if (key == "levels") {
    levels = parse_int<int>(key, value, 0, pyramid::kMaxLevels);  // 0 = auto
  } else if (key == "cache_mb") {
    cache_mb = parse_double(key, value);
    if (!(cache_mb > 0.0))
      throw ContractError("options: cache_mb must be > 0, got " + value);
  } else if (key == "prefetch") {
    prefetch = parse_bool(key, value);
  } else if (key == "importance") {
    if (value != "halo" && value != "gradient" && value != "roi" && value != "file")
      throw ContractError("options: importance must be halo|gradient|roi|file, got " +
                          value);
    importance = value;
  } else if (key == "importance_file") {
    importance_file = value;
  } else if (key == "roi") {
    roi = parse_box(key, value);
  } else if (key == "coarse_level") {
    coarse_level = parse_int<int>(key, value, 0, adaptive::kMaxLevels - 1);
  } else if (key == "halo_threshold") {
    halo_threshold = parse_double(key, value);
    if (!(halo_threshold >= 0.0))
      throw ContractError("options: halo_threshold must be >= 0, got " + value);
  } else {
    throw ContractError(
        "options: unknown key '" + key +
        "' (known: codec eb eb_mode merge pad pad_kind adaptive_eb alpha "
        "beta quant_radius postprocess roi_block roi_fraction block_size "
        "use_regression threads entropy_shards tile levels cache_mb prefetch "
        "importance importance_file roi coarse_level halo_threshold)");
  }
}

Options Options::parse(const std::string& spec) {
  Options o;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw ContractError("options: expected key=value, got '" + item + "'");
    o.set(item.substr(0, eq), item.substr(eq + 1));
  }
  return o;
}

std::string Options::to_string() const {
  std::string s;
  s += "codec=" + codec;
  s += ",eb=" + fmt_double(eb);
  s += std::string(",eb_mode=") + (eb_mode == EbMode::relative ? "rel" : "abs");
  s += std::string(",merge=") + merge_str(merge);
  s += std::string(",pad=") + (pad ? "1" : "0");
  s += std::string(",pad_kind=") + pad_kind_str(pad_kind);
  if (adaptive_eb.has_value())
    s += std::string(",adaptive_eb=") + (*adaptive_eb ? "1" : "0");
  s += ",alpha=" + fmt_double(alpha);
  s += ",beta=" + fmt_double(beta);
  s += ",quant_radius=" + std::to_string(quant_radius);
  s += std::string(",postprocess=") + (postprocess ? "1" : "0");
  s += ",roi_block=" + std::to_string(roi_block);
  s += ",roi_fraction=" + fmt_double(roi_fraction);
  s += ",block_size=" + std::to_string(block_size);
  s += std::string(",use_regression=") + (use_regression ? "1" : "0");
  s += ",threads=" + std::to_string(threads);
  s += ",entropy_shards=" + std::to_string(entropy_shards);
  s += ",tile=" + std::to_string(tile);
  s += ",levels=" + std::to_string(levels);
  s += ",cache_mb=" + fmt_double(cache_mb);
  s += std::string(",prefetch=") + (prefetch ? "1" : "0");
  s += ",importance=" + importance;
  if (!importance_file.empty()) s += ",importance_file=" + importance_file;
  if (roi.has_value())
    s += ",roi=" + std::to_string(roi->lo.x) + ":" + std::to_string(roi->lo.y) + ":" +
         std::to_string(roi->lo.z) + ":" + std::to_string(roi->hi.x) + ":" +
         std::to_string(roi->hi.y) + ":" + std::to_string(roi->hi.z);
  s += ",coarse_level=" + std::to_string(coarse_level);
  s += ",halo_threshold=" + fmt_double(halo_threshold);
  return s;
}

CodecTuning Options::tuning() const {
  CodecTuning t;
  t.quant_radius = quant_radius;
  t.adaptive_eb = adaptive_eb.value_or(false);  // plain-codec default
  t.alpha = alpha;
  t.beta = beta;
  t.block_size = block_size;
  t.use_regression = use_regression;
  // Codec chunk counts need a concrete width; 0 resolves to the hardware.
  t.threads = exec::lanes_for(threads);
  t.entropy_shards = entropy_shards;
  return t;
}

sz3mr::Config Options::pipeline() const {
  sz3mr::Config c;
  c.merge = merge;
  c.pad = pad;
  c.pad_kind = pad_kind;
  c.adaptive_eb = adaptive_eb.value_or(true);  // the paper's full SZ3MR
  c.alpha = alpha;
  c.beta = beta;
  c.quant_radius = quant_radius;
  c.postprocess = postprocess;
  c.threads = threads;
  return c;
}

tiled::Config Options::tiled_config() const {
  tiled::Config c;
  c.codec = codec;
  c.tuning = tuning();
  c.brick = tile;
  c.threads = threads;
  return c;
}

pyramid::Config Options::pyramid_config() const {
  pyramid::Config c;
  c.codec = codec;
  c.tuning = tuning();
  c.brick = tile;
  c.threads = threads;
  c.levels = levels;
  return c;
}

progressive::Config Options::progressive_config() const {
  progressive::Config c;
  c.codec = codec;
  c.resid_codec = "auto";
  c.tuning = tuning();
  c.brick = tile;
  c.threads = threads;
  c.levels = levels;
  return c;
}

adaptive::Config Options::adaptive_config() const {
  adaptive::Config c;
  c.codec = codec;
  c.tuning = tuning();
  c.brick = tile;
  c.threads = threads;
  c.pad_kind = pad_kind;
  return c;
}

serve::Config Options::serve_config() const {
  // The field is public, so a caller can bypass set()'s check; a negative
  // budget must fail here, not hit a float->size_t cast (UB when negative).
  MRC_REQUIRE(cache_mb > 0.0, "options: cache_mb must be > 0");
  serve::Config c;
  c.cache_bytes = static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
  c.threads = threads;
  c.prefetch = prefetch;
  return c;
}

serve::ServerConfig Options::server_config() const {
  MRC_REQUIRE(cache_mb > 0.0, "options: cache_mb must be > 0");
  serve::ServerConfig c;
  c.cache_bytes = static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
  c.threads = threads;
  c.prefetch = prefetch;
  return c;
}

double Options::absolute_eb(const FieldF& f) const {
  if (eb_mode == EbMode::absolute) return eb;
  const double range = f.value_range();
  // A constant field has zero range; any positive bound is exact then.
  return eb * (range > 0.0 ? range : 1.0);
}

Bytes compress(const FieldF& f, const Options& opt) {
  OBS_SPAN("api.compress");
  const auto codec = registry().make(opt.codec, opt.tuning());
  return codec->compress(f, opt.absolute_eb(f));
}

FieldF decompress(std::span<const std::byte> stream, int threads) {
  OBS_SPAN("api.decompress");
  const StreamHeader h = peek_header(stream);
  if (h.codec_magic == workflow::kSnapshotMagic) return restore(stream, threads);
  if (h.codec_magic == tiled::kTiledMagic) return tiled::decompress(stream, threads);
  if (h.codec_magic == pyramid::kPyramidMagic)
    // The uniform reconstruction of a pyramid is its finest level.
    return pyramid::decompress_level(stream, /*level=*/0, threads);
  if (h.codec_magic == adaptive::kAdaptiveMagic)
    // The seam-free blended finest grid of the adaptive container.
    return adaptive::decompress(stream, threads);
  if (h.codec_magic == progressive::kProgressiveMagic)
    // The uniform reconstruction of a residual pyramid is its finest level.
    return progressive::decompress_level(stream, /*level=*/0, threads);
  if (h.codec_magic == sz3mr::kLevelMagic)
    // A bare level stream decodes to its level grid (zeros outside the mask).
    return sz3mr::decompress_level(stream, threads).data;
  CodecTuning tuning;
  tuning.threads = exec::lanes_for(threads);
  return registry().make_for_magic(h.codec_magic, tuning)->decompress(stream);
}

Bytes compress_adaptive(const FieldF& uniform, const Options& opt) {
  // The multi-resolution pipeline is interp-based (paper §III-A); honoring
  // other codecs here is future work, so reject rather than silently ignore.
  MRC_REQUIRE(opt.codec == "interp",
              "compress_adaptive: the multi-resolution pipeline supports only "
              "codec=interp, got codec=" + opt.codec);
  const auto adaptive =
      roi::extract_adaptive(uniform, opt.roi_block, opt.roi_fraction, opt.threads);
  return workflow::encode_snapshot(adaptive, opt.absolute_eb(uniform), opt.pipeline());
}

MultiResField restore_adaptive(std::span<const std::byte> snapshot, int threads) {
  return workflow::decode_snapshot(snapshot, threads);
}

FieldF restore(std::span<const std::byte> snapshot, int threads) {
  return workflow::decode_snapshot(snapshot, threads).reconstruct_uniform(threads);
}

Bytes compress_tiled(const FieldF& f, const Options& opt) {
  return tiled::compress(f, opt.absolute_eb(f), opt.tiled_config());
}

FieldF read_region(std::span<const std::byte> stream, const tiled::Box& region,
                   int threads) {
  return tiled::read_region(stream, region, threads).data;
}

Bytes build_pyramid(const FieldF& f, const Options& opt) {
  return pyramid::build(f, opt.absolute_eb(f), opt.pyramid_config());
}

Bytes build_progressive(const FieldF& f, const Options& opt) {
  return progressive::build(f, opt.absolute_eb(f), opt.progressive_config());
}

Bytes compress_adaptive_roi(const FieldF& f, const Options& opt) {
  const index_t brick = opt.tile;
  adaptive::LevelMap map;
  if (opt.importance == "halo") {
    const float thr = opt.halo_threshold > 0.0
                          ? static_cast<float>(opt.halo_threshold)
                          : roi::top_value_quantile(f.span(), 0.002);
    map = adaptive::map_from_halos(f, brick, thr, /*min_cells=*/8, opt.coarse_level);
  } else if (opt.importance == "gradient") {
    map = adaptive::map_from_gradient(f, brick, opt.roi_fraction, opt.coarse_level);
  } else if (opt.importance == "roi") {
    MRC_REQUIRE(opt.roi.has_value(),
                "compress_adaptive_roi: importance=roi needs roi=x0:y0:z0:x1:y1:z1");
    const tiled::Box box = *opt.roi;
    map = adaptive::map_from_boxes(f.dims(), brick, {&box, 1}, opt.coarse_level);
  } else if (opt.importance == "file") {
    MRC_REQUIRE(!opt.importance_file.empty(),
                "compress_adaptive_roi: importance=file needs importance_file=<path>");
    const FieldF score = io::read_raw(opt.importance_file);
    MRC_REQUIRE(score.dims() == f.dims(),
                "compress_adaptive_roi: importance field is " + score.dims().str() +
                    ", data is " + f.dims().str());
    map = adaptive::map_from_field(score, brick, opt.roi_fraction, opt.coarse_level);
  } else {
    throw ContractError("compress_adaptive_roi: importance must be "
                        "halo|gradient|roi|file, got " + opt.importance);
  }
  return adaptive::compress(f, opt.absolute_eb(f), map, opt.adaptive_config());
}

serve::Dataset open_dataset(Bytes stream, const Options& opt) {
  return serve::Dataset(std::move(stream), opt.serve_config());
}

StreamInfo info(std::span<const std::byte> stream) {
  const StreamHeader h = peek_header(stream);
  StreamInfo out;
  out.version = h.version;
  out.entropy_shards = h.entropy_shards;
  out.dims = h.dims;
  out.eb = h.eb;
  out.stream_bytes = stream.size();
  if (h.codec_magic == workflow::kSnapshotMagic) {
    out.kind = StreamInfo::Kind::snapshot;
    out.codec = "snapshot";
    ByteReader r(stream.subspan(h.header_bytes));
    (void)r.get_varint();  // block size
    out.levels = static_cast<std::size_t>(r.get_varint());
  } else if (h.codec_magic == tiled::kTiledMagic) {
    // O(1) preamble peek — the per-tile records are not walked here.
    const tiled::Index idx = tiled::read_geometry(stream);
    out.kind = StreamInfo::Kind::tiled;
    out.codec = idx.codec;
    out.brick = idx.brick;
    out.overlap = idx.overlap;
    out.tile_grid = idx.grid;
    out.tiles = static_cast<std::size_t>(idx.grid.size());
  } else if (h.codec_magic == pyramid::kPyramidMagic ||
             h.codec_magic == progressive::kProgressiveMagic) {
    // O(levels) table peek — no nested tile index is walked here.
    const bool mrcr = h.codec_magic == progressive::kProgressiveMagic;
    const pyramid::Index idx =
        mrcr ? progressive::read_geometry(stream) : pyramid::read_geometry(stream);
    out.kind = mrcr ? StreamInfo::Kind::progressive : StreamInfo::Kind::pyramid;
    out.codec = idx.codec;
    out.brick = idx.brick;
    out.levels = idx.levels.size();
    out.level_meta.reserve(idx.levels.size());
    for (const auto& e : idx.levels)
      out.level_meta.push_back({e.dims, e.length, e.vmin, e.vmax, e.approx_err});
  } else if (h.codec_magic == adaptive::kAdaptiveMagic) {
    // O(1) preamble peek — the per-brick records are not walked here.
    const adaptive::Index idx = adaptive::read_geometry(stream);
    out.kind = StreamInfo::Kind::adaptive;
    out.codec = idx.codec;
    out.brick = idx.brick;
    out.overlap = idx.overlap;
    out.tile_grid = idx.grid;
    out.tiles = static_cast<std::size_t>(idx.grid.size());
    out.levels = static_cast<std::size_t>(idx.n_levels);
  } else if (h.codec_magic == sz3mr::kLevelMagic) {
    out.kind = StreamInfo::Kind::level;
    out.codec = "sz3mr";
  } else if (const auto* entry = registry().find_magic(h.codec_magic)) {
    out.kind = StreamInfo::Kind::field;
    out.codec = entry->name;
  } else {
    throw CodecError("stream written by an unregistered codec");
  }
  return out;
}

}  // namespace mrc::api
