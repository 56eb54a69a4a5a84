// One snapshot's encode and decode on several exec-pool lanes, bit for bit.
//
// The interp codec splits its large prediction sweeps into chunks, the
// monolithic Huffman encode splits into slices, and a linear merge's level
// decode scatters its blocks in parallel. Each property here runs the
// multi-lane path against the one-lane run of the same input and compares
// bytes with memcmp; the level-decode property also checks each layout's
// scatter against the strip -> unmerge -> scatter chain it replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantize/quantize_compressor.h"
#include "core/sz3mr.h"
#include "exec/thread_pool.h"
#include "lossless/quant_codec.h"
#include "merge_reference.h"
#include "obs/obs.h"
#include "postproc/sampler.h"
#include "roi/roi_extract.h"
#include "test_util.h"

namespace mrc {
namespace {

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool same_bits(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() && same_bytes(std::as_bytes(a.span()), std::as_bytes(b.span()));
}

// ------------------------------------------------------------------ interp --

/// A smooth field with noise, a step and a sprinkle of NaN / ±inf samples
/// (when `nonfinite`), so sweeps carry outliers in many chunks.
FieldF property_field(Dim3 d, Rng& rng, bool nonfinite) {
  FieldF f(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(std::sin(0.21 * x + 0.03 * z) * std::cos(0.17 * y) +
                                           (x > d.nx / 2 ? 0.7 : 0.0) + 0.05 * rng.normal());
  if (nonfinite) {
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (int k = 0; k < 24; ++k)
      f[static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.size())))] =
          specials[k % 3];
  }
  return f;
}

struct InterpCase {
  Dim3 dims;
  bool cubic;
  bool adaptive_eb;
  std::uint32_t radius;
  bool nonfinite;
};

/// Seeded cases over extents whose largest sweeps pass the 16 Ki-target
/// chunk threshold: 1-wide, prime, and thin-tall merged shapes.
std::vector<InterpCase> interp_cases() {
  const Dim3 shapes[] = {{17, 17, 400}, {9, 9, 1500}, {1, 211, 409}, {37, 41, 53},
                         {257, 1, 131}, {64, 64, 48}, {5, 17, 1999}, {23, 29, 31}};
  std::vector<InterpCase> cases;
  Rng rng(2024);
  for (const Dim3& d : shapes)
    for (int variant = 0; variant < 2; ++variant)
      cases.push_back({d, rng.uniform() < 0.5, rng.uniform() < 0.5,
                       variant == 0 ? 2u : 512u, rng.uniform() < 0.5});
  return cases;
}

TEST(InterpProperty, MultiLaneStreamsMatchOneLane) {
  Rng rng(77);
  for (const InterpCase& c : interp_cases()) {
    const FieldF f = property_field(c.dims, rng, c.nonfinite);
    InterpConfig cfg;
    cfg.cubic = c.cubic;
    cfg.adaptive_eb = c.adaptive_eb;
    cfg.quant_radius = c.radius;
    const std::string what = std::to_string(c.dims.nx) + "x" + std::to_string(c.dims.ny) +
                             "x" + std::to_string(c.dims.nz) + " cubic=" +
                             std::to_string(c.cubic) + " adaptive=" +
                             std::to_string(c.adaptive_eb) + " radius=" +
                             std::to_string(c.radius) + " nonfinite=" +
                             std::to_string(c.nonfinite);
    const Bytes one = InterpCompressor(cfg).compress(f, 0.01);
    const FieldF back_one = InterpCompressor(cfg).decompress(one);
    for (int lanes = 2; lanes <= 4; ++lanes) {
      InterpConfig wide = cfg;
      wide.threads = lanes;
      const InterpCompressor codec(wide);
      EXPECT_TRUE(same_bytes(codec.compress(f, 0.01), one))
          << what << ", " << lanes << " lanes";
      EXPECT_TRUE(same_bits(codec.decompress(one), back_one))
          << what << ", " << lanes << " lanes";
    }
  }
}

TEST(InterpProperty, OnlyOffLaneCallsReachThePool) {
  obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  const FieldF f = test::smooth_field({17, 17, 600});
  InterpConfig four;
  four.threads = 4;
  InterpConfig one;
  const InterpCompressor wide(four);
  const InterpCompressor narrow(one);

  std::uint64_t before = tasks.value();
  const Bytes s = wide.compress(f, 0.01);
  EXPECT_GT(tasks.value(), before) << "4-lane compress stayed on one lane";
  before = tasks.value();
  (void)wide.decompress(s);
  EXPECT_GT(tasks.value(), before) << "4-lane decompress stayed on one lane";

  before = tasks.value();
  (void)narrow.decompress(narrow.compress(f, 0.01));
  EXPECT_EQ(tasks.value(), before) << "1-lane calls posted pool tasks";

  // On a pool lane (a brick of a container) the codec keeps to that lane.
  exec::parallel_for(1, [&](index_t) {
    const std::uint64_t on_lane = tasks.value();
    (void)wide.decompress(wide.compress(f, 0.01));
    EXPECT_EQ(tasks.value(), on_lane) << "on-lane calls posted pool tasks";
  }, 1);
}

// -------------------------------------------------------------- quant codec --

constexpr std::uint32_t kRadius = 512;
constexpr std::size_t kMinRun = 6;  // lossless/quant_codec.cpp: shorter runs are literals

/// Non-zero-bin literals (and a few outlier escapes) everywhere.
std::vector<std::uint32_t> literals(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) {
    c = kRadius + 1 + static_cast<std::uint32_t>(rng.uniform_index(30));
    if (rng.uniform() < 0.3)
      c = kRadius - 1 - static_cast<std::uint32_t>(rng.uniform_index(30));
    if (rng.uniform() < 0.01) c = 0;
  }
  return codes;
}

void zero_bins(std::vector<std::uint32_t>& codes, std::size_t b, std::size_t e) {
  for (std::size_t i = b; i < e && i < codes.size(); ++i) codes[i] = kRadius;
}

/// Literals with a zero-bin run of `len` at each distinct even slice bound
/// n*k/S of S in 2..4 (n/4, n/3, n/2, 2n/3, 3n/4): ending at, starting at
/// or straddling it, rotating through the three by bound and `variant`.
std::vector<std::uint32_t> edge_runs(std::size_t n, std::size_t len, int variant, Rng& rng) {
  std::vector<std::uint32_t> codes = literals(n, rng);
  const std::size_t edges[] = {n / 4, n / 3, n / 2, 2 * n / 3, 3 * n / 4};
  for (int i = 0; i < 5; ++i) {
    const std::size_t e = edges[i];
    switch ((i + variant) % 3) {
      case 0: zero_bins(codes, e - len, e); break;
      case 1: zero_bins(codes, e, e + len); break;
      default: zero_bins(codes, e - 2, e - 2 + len);
    }
  }
  return codes;
}

TEST(QuantCodecProperty, SlicedEncodeMatchesOneSlice) {
  Rng rng(4242);
  const std::size_t n = lossless::kMinSliceSymbols + 4099;  // past the slicing threshold
  std::vector<std::vector<std::uint32_t>> inputs;
  // Runs of kMinRun - 1 (literals) and kMinRun (one run token) at the bounds.
  for (const std::size_t len : {kMinRun - 1, kMinRun})
    for (int variant = 0; variant < 3; ++variant)
      inputs.push_back(edge_runs(n, len, variant, rng));
  inputs.push_back(std::vector<std::uint32_t>(n, kRadius));  // every slice all zeros
  {
    // Slice 1 of 4 all zeros, its run spilling into slices 0 and 2.
    std::vector<std::uint32_t> spill = literals(n, rng);
    zero_bins(spill, n / 4 - 40, n / 2 + 40);
    inputs.push_back(std::move(spill));
  }
  {
    std::vector<std::uint32_t> no_zeros(n);  // not one zero bin
    for (auto& c : no_zeros)
      c = kRadius + 1 + static_cast<std::uint32_t>(rng.uniform_index(kRadius - 1));
    inputs.push_back(std::move(no_zeros));
  }
  {
    // Long random runs anywhere, cut wherever the bounds fall.
    std::vector<std::uint32_t> runs(n);
    for (std::size_t i = 0; i < n;) {
      const std::size_t len = 1 + rng.uniform_index(rng.uniform() < 0.5 ? 9 : 3000);
      const bool zeros = rng.uniform() < 0.6;
      for (std::size_t k = 0; k < len && i < n; ++k, ++i)
        runs[i] = zeros ? kRadius : kRadius + 1 + static_cast<std::uint32_t>(k % 7);
    }
    inputs.push_back(std::move(runs));
  }
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const auto& codes = inputs[t];
    const Bytes one = lossless::encode_quant_codes(codes, kRadius, 1);
    for (int lanes = 2; lanes <= 4; ++lanes)
      EXPECT_TRUE(same_bytes(lossless::encode_quant_codes(codes, kRadius, lanes), one))
          << "input " << t << ", " << lanes << " lanes";
    EXPECT_EQ(lossless::decode_quant_codes(one, kRadius), codes) << "input " << t;
  }
}

// ------------------------------------------------------------------- sz3mr --

/// The level decode before one scatter per layout: decode the merged array
/// or boxes, strip the pad, post-process, split into block copies and
/// scatter them (merge_reference.h).
LevelData strip_unmerge_scatter(std::span<const std::byte> stream) {
  ByteReader r(stream);
  const auto header = detail::read_header(r, sz3mr::kLevelMagic, "sz3mr");
  test::BlockPayload p;
  UnitBlockSet& set = p.set;
  const auto ratio = static_cast<index_t>(r.get_varint());
  set.unit = static_cast<index_t>(r.get_varint());
  const auto merge = static_cast<MergeKind>(r.get<std::uint8_t>());
  const bool padded = r.get<std::uint8_t>() != 0;
  (void)r.get<std::uint8_t>();
  set.level_dims = header.dims;
  set.block_grid = blocks_for(header.dims, set.unit);
  const auto n_blocks = static_cast<index_t>(r.get_varint());
  index_t prev = -1;
  for (index_t i = 0; i < n_blocks; ++i) {
    prev += static_cast<index_t>(r.get_varint());
    set.block_ids.push_back(prev);
  }
  LevelData level;
  level.ratio = ratio;
  level.data = FieldF(header.dims, 0.0f);
  level.mask = MaskField(header.dims, 0);
  double ax = 0.0, ay = 0.0, az = 0.0;
  if (r.get<std::uint8_t>() != 0) {
    ax = r.get<double>();
    ay = r.get<double>();
    az = r.get<double>();
  }
  const InterpCompressor interp;
  if (merge == MergeKind::tac) {
    std::vector<TacBox> boxes(static_cast<std::size_t>(r.get_varint()));
    for (TacBox& box : boxes) {
      box.origin_blocks = {static_cast<index_t>(r.get_varint()),
                           static_cast<index_t>(r.get_varint()),
                           static_cast<index_t>(r.get_varint())};
      box.extent_blocks = {static_cast<index_t>(r.get_varint()),
                           static_cast<index_t>(r.get_varint()),
                           static_cast<index_t>(r.get_varint())};
      box.data = interp.decompress(r.get_blob());
    }
    test::unmerge_tac(boxes, p);
  } else {
    FieldF merged = interp.decompress(r.get_blob());
    if (padded) merged = strip_pad_xy(merged);
    if (ax > 0.0 || ay > 0.0 || az > 0.0)
      merged = postproc::bezier_postprocess(merged, {set.unit, header.eb, ax, ay, az});
    if (merge == MergeKind::linear)
      test::unmerge_linear(merged, p);
    else
      test::unmerge_stack(merged, p);
  }
  test::scatter_unit_blocks(p, level);
  return level;
}

TEST(Sz3mrProperty, LevelDecodeMatchesStripUnmergeScatter) {
  // 64^3 with a 16^3 ROI block: level 0 keeps 32 blocks (a 17x17x512 padded
  // merge, past the chunk threshold), level 1 the rest at half resolution.
  Rng rng(5);
  const FieldF f = property_field({64, 64, 64}, rng, /*nonfinite=*/false);
  const MultiResField mr = roi::extract_adaptive(f, 16, 0.5);
  struct Preset {
    const char* name;
    sz3mr::Config cfg;
  };
  const Preset presets[] = {{"padded", sz3mr::ours_pad_eb()},
                            {"unpadded", sz3mr::baseline_sz3()},
                            {"post-processed", sz3mr::ours_processed()},
                            {"stack", sz3mr::amric_sz3()},
                            {"tac", sz3mr::tac_sz3()}};
  // Radius 2 makes outliers of most samples, so every chunk of a split
  // sweep carries some.
  for (const Preset& p : presets)
    for (const std::uint32_t radius : {2u, 512u})
      for (const LevelData& level : mr.levels) {
        const std::string what = std::string(p.name) + " radius " + std::to_string(radius) +
                                 " level ratio " + std::to_string(level.ratio);
        const index_t unit = 16 / level.ratio;
        sz3mr::Config cfg = p.cfg;
        cfg.quant_radius = radius;
        const Bytes one = sz3mr::compress_level(level, unit, 0.02, cfg);
        sz3mr::Config wide = cfg;
        wide.threads = 4;
        EXPECT_TRUE(same_bytes(sz3mr::compress_level(level, unit, 0.02, wide), one)) << what;
        const LevelData want = strip_unmerge_scatter(one);
        for (const int lanes : {1, 4}) {
          const LevelData got = sz3mr::decompress_level(one, lanes);
          EXPECT_TRUE(same_bits(got.data, want.data)) << what << ", " << lanes << " lanes";
          EXPECT_TRUE(same_bytes(std::as_bytes(got.mask.span()),
                                 std::as_bytes(want.mask.span())))
              << what << ", " << lanes << " lanes";
        }
      }
}

/// The head of a hand-written unit-16 level stream over `dims`: ratio 1,
/// merge byte `merge`, pad flag `padded`, the listed block ids and no
/// post-process section. The payload follows it.
Bytes level_head(Dim3 dims, std::uint8_t merge, bool padded,
                 std::initializer_list<index_t> ids) {
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, sz3mr::kLevelMagic, dims, 0.01);
  w.put_varint(1);   // ratio
  w.put_varint(16);  // unit
  w.put(merge);
  w.put(static_cast<std::uint8_t>(padded ? 1 : 0));
  w.put(std::uint8_t{0});  // pad kind
  w.put_varint(ids.size());
  index_t prev = -1;
  for (const index_t id : ids) {
    w.put_varint(static_cast<std::uint64_t>(id - prev));
    prev = id;
  }
  w.put(std::uint8_t{0});  // no post-process section
  return out;
}

/// The interp blob of a smooth field with extents `d`.
Bytes interp_blob(Dim3 d) { return InterpCompressor().compress(test::smooth_field(d), 0.01); }

/// A linear or stack level stream: the head, then one blob of `blob` extents.
Bytes merged_level(Dim3 dims, std::uint8_t merge, bool padded,
                   std::initializer_list<index_t> ids, Dim3 blob) {
  Bytes out = level_head(dims, merge, padded, ids);
  ByteWriter(out).put_blob(interp_blob(blob));
  return out;
}

/// A linear unpadded merge of blocks 0 and 1, and the 16 x 16 x 32 interp
/// blob they decode to.
Bytes two_block_level(Dim3 dims) {
  return merged_level(dims, static_cast<std::uint8_t>(MergeKind::linear), false, {0, 1},
                      {16, 16, 32});
}

TEST(Sz3mrProperty, RejectsLevelExtentsNotDivisibleByUnit) {
  // 32 x 16 x 16 holds both blocks whole.
  const LevelData whole = sz3mr::decompress_level(two_block_level({32, 16, 16}), 4);
  index_t stored = 0;
  for (index_t i = 0; i < whole.mask.size(); ++i) stored += whole.mask[i];
  EXPECT_EQ(stored, 32 * 16 * 16);
  // At 20 x 16 x 16 block 1 is partial: its rows would land past the grid.
  const Bytes partial = two_block_level({20, 16, 16});
  for (const int lanes : {1, 4}) {
    EXPECT_THROW((void)sz3mr::decompress_level(partial, lanes), CodecError) << lanes;
    EXPECT_THROW((void)api::decompress(partial, lanes), CodecError) << lanes;
  }
}

/// One box record of a hand-written TAC stream, with a blob of `blob`
/// extents.
struct CraftedBox {
  Coord3 origin;
  Dim3 extent;
  Dim3 blob;
};

/// A 32^3 TAC level stream (a 2 x 2 x 2 block grid) listing `ids`, with
/// `count` as its box count and `boxes` as the records that follow.
Bytes tac_level(std::initializer_list<index_t> ids, std::uint64_t count,
                std::initializer_list<CraftedBox> boxes) {
  Bytes out = level_head({32, 32, 32}, static_cast<std::uint8_t>(MergeKind::tac), false, ids);
  ByteWriter w(out);
  w.put_varint(count);
  for (const CraftedBox& b : boxes) {
    for (const index_t v : {b.origin.x, b.origin.y, b.origin.z, b.extent.nx, b.extent.ny,
                            b.extent.nz})
      w.put_varint(static_cast<std::uint64_t>(v));
    w.put_blob(interp_blob(b.blob));
  }
  return out;
}

void expect_codec_error(const Bytes& stream, const char* what) {
  for (const int lanes : {1, 4}) {
    EXPECT_THROW((void)sz3mr::decompress_level(stream, lanes), CodecError)
        << what << ", " << lanes << " lanes";
    EXPECT_THROW((void)api::decompress(stream, lanes), CodecError)
        << what << ", " << lanes << " lanes";
  }
}

TEST(Sz3mrProperty, RejectsTacBoxesThatDoNotTileTheListedBlocks) {
  const Dim3 one{16, 16, 16};
  // The well-formed stream these are cut from decodes.
  const LevelData ok = sz3mr::decompress_level(tac_level({0}, 1, {{{0, 0, 0}, {1, 1, 1}, one}}));
  index_t stored = 0;
  for (index_t i = 0; i < ok.mask.size(); ++i) stored += ok.mask[i];
  EXPECT_EQ(stored, 16 * 16 * 16);
  expect_codec_error(tac_level({0}, 1, {{{0, 0, 0}, {1, 1, 1}, {8, 8, 8}}}),
                     "box samples short of its extent");
  expect_codec_error(tac_level({0}, 1, {{{9, 9, 9}, {1, 1, 1}, one}}), "box outside the grid");
  expect_codec_error(tac_level({0}, 1, {{{0, 0, 0}, {2, 1, 1}, {32, 16, 16}}}),
                     "box over an unlisted block");
  expect_codec_error(tac_level({0}, std::uint64_t{1} << 40, {}), "box count 2^40");
  expect_codec_error(tac_level({0, 1}, 2, {{{0, 0, 0}, {1, 1, 1}, one}, {{0, 0, 0}, {1, 1, 1}, one}}),
                     "overlapping boxes");
  expect_codec_error(tac_level({0, 1}, 1, {{{0, 0, 0}, {1, 1, 1}, one}}),
                     "listed block no box covers");
}

TEST(Sz3mrProperty, RejectsMergeLayoutsTheBlockListDoesNotImply) {
  const auto linear = static_cast<std::uint8_t>(MergeKind::linear);
  const auto stack = static_cast<std::uint8_t>(MergeKind::stack);
  // Three blocks of a 2 x 2 x 1 grid over four blocks' samples.
  expect_codec_error(merged_level({32, 32, 16}, linear, false, {0, 1, 2}, {16, 16, 64}),
                     "linear blob of the wrong extents");
  expect_codec_error(merged_level({32, 16, 16}, 7, false, {0, 1}, {32, 16, 16}),
                     "merge byte 7");
  // Two blocks stack as 2 x 1 x 1; only a linear merge is ever padded.
  expect_codec_error(merged_level({32, 16, 16}, stack, true, {0, 1}, {33, 17, 16}),
                     "padded stack merge");
  // The same streams with the layouts they claim decode.
  EXPECT_NO_THROW(
      (void)sz3mr::decompress_level(merged_level({32, 32, 16}, linear, false, {0, 1, 2},
                                                 {16, 16, 48})));
  EXPECT_NO_THROW((void)sz3mr::decompress_level(
      merged_level({32, 16, 16}, stack, false, {0, 1}, {32, 16, 16})));
}

// ------------------------------------------------------------- radius cap --

/// `stream` with the varint radius at byte offset `at` replaced by `radius`.
Bytes with_radius(const Bytes& stream, std::size_t at, std::uint64_t radius) {
  ByteReader r(std::span<const std::byte>(stream).subspan(at));
  (void)r.get_varint();
  const std::size_t old_end = stream.size() - r.remaining();
  Bytes out(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(at));
  ByteWriter w(out);
  w.put_varint(radius);
  out.insert(out.end(), stream.begin() + static_cast<std::ptrdiff_t>(old_end), stream.end());
  return out;
}

constexpr std::uint32_t kPastCap = lossless::kMaxQuantRadius + 1;  // 8,388,584

TEST(QuantRadiusCap, OptionsAndConstructorsRejectPastTheCodebookField) {
  api::Options o;
  EXPECT_NO_THROW(o.set("quant_radius", std::to_string(lossless::kMaxQuantRadius)));
  EXPECT_THROW(o.set("quant_radius", std::to_string(kPastCap)), ContractError);
  EXPECT_THROW((void)InterpCompressor(InterpConfig{.quant_radius = kPastCap}), ContractError);
  EXPECT_THROW((void)LorenzoCompressor(LorenzoConfig{.quant_radius = kPastCap}),
               ContractError);
  EXPECT_THROW((void)QuantizeCompressor(QuantizeConfig{.quant_radius = kPastCap}),
               ContractError);
  // The codebook refuses to write an alphabet its 24-bit field cannot hold.
  const std::vector<std::uint32_t> codes(16, 3);
  EXPECT_THROW((void)lossless::encode_quant_codes(codes, kPastCap), ContractError);
}

TEST(QuantRadiusCap, DecodersRejectStreamRadiusOutsideTheCap) {
  const FieldF f = test::smooth_field({12, 10, 8});
  const Bytes interp = InterpCompressor().compress(f, 0.01);
  const Bytes lorenzo = LorenzoCompressor().compress(f, 0.01);
  // Offsets of the radius varint: interp after the header, two flag bytes
  // and alpha/beta; lorenzo after the header and the block-size varint.
  ByteReader ri(interp);
  (void)detail::read_header(ri, InterpCompressor::kMagic, "interp");
  (void)ri.get<std::uint8_t>();
  (void)ri.get<std::uint8_t>();
  (void)ri.get<double>();
  (void)ri.get<double>();
  const std::size_t interp_at = interp.size() - ri.remaining();
  ByteReader rl(lorenzo);
  (void)detail::read_header(rl, LorenzoCompressor::kMagic, "lorenzo");
  (void)rl.get_varint();
  const std::size_t lorenzo_at = lorenzo.size() - rl.remaining();
  for (const std::uint64_t radius : {std::uint64_t{1}, std::uint64_t{kPastCap}}) {
    EXPECT_THROW((void)InterpCompressor().decompress(with_radius(interp, interp_at, radius)),
                 CodecError)
        << radius;
    EXPECT_THROW(
        (void)LorenzoCompressor().decompress(with_radius(lorenzo, lorenzo_at, radius)),
        CodecError)
        << radius;
  }
  // The offsets are right: the stream's own radius still decodes.
  EXPECT_NO_THROW((void)InterpCompressor().decompress(with_radius(interp, interp_at, 512)));
  EXPECT_NO_THROW((void)LorenzoCompressor().decompress(with_radius(lorenzo, lorenzo_at, 512)));
}

}  // namespace
}  // namespace mrc
