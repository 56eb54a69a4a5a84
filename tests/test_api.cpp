// CodecRegistry + mrc::api facade: registration invariants, magic-peek
// dispatch across every registered codec, container-header robustness, and
// Options key=value parsing.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/mrc_api.h"
#include "common/bytes.h"
#include "obs/obs.h"
#include "simdata/generators.h"
#include "test_util.h"

namespace mrc {
namespace {

// ---------------------------------------------------------------------------
// Registry invariants.
// ---------------------------------------------------------------------------

TEST(CodecRegistry, BuiltinsRegistered) {
  const auto names = registry().names();
  for (const char* expected : {"interp", "lorenzo", "zfpx"})
    EXPECT_TRUE(registry().contains(expected)) << expected;
  EXPECT_GE(names.size(), 3u);
}

TEST(CodecRegistry, UnknownNameThrowsListingKnownCodecs) {
  try {
    (void)registry().make("nope");
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("interp"), std::string::npos);
  }
}

TEST(CodecRegistry, UnknownMagicThrows) {
  EXPECT_THROW((void)registry().make_for_magic(0xdeadbeef), CodecError);
}

TEST(CodecRegistry, DuplicateNameOrMagicRejected) {
  CodecRegistry local;
  auto factory = [](const CodecTuning& t) { return registry().make("interp", t); };
  local.add({"a", 1, "", 0, factory});
  EXPECT_THROW(local.add({"a", 2, "", 0, factory}), ContractError);  // dup name
  EXPECT_THROW(local.add({"b", 1, "", 0, factory}), ContractError);  // dup magic
  local.add({"b", 2, "", 0, factory});
  EXPECT_EQ(local.names().size(), 2u);
}

TEST(CodecRegistry, IncompleteEntryRejected) {
  CodecRegistry local;
  auto factory = [](const CodecTuning& t) { return registry().make("interp", t); };
  EXPECT_THROW(local.add({"", 1, "", 0, factory}), ContractError);
  EXPECT_THROW(local.add({"x", 0, "", 0, factory}), ContractError);
  EXPECT_THROW(local.add({"x", 1, "", 0, nullptr}), ContractError);
}

TEST(CodecRegistry, NameAndMagicLookupsAgree) {
  for (const auto& name : registry().names()) {
    const auto* e = registry().find(name);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(registry().find_magic(e->magic), e);
    EXPECT_EQ(registry().make(name)->name(), name);
  }
}

// ---------------------------------------------------------------------------
// Magic-peek dispatch: every registered codec's stream decodes through the
// facade without naming the codec, and info() identifies it from the header.
// ---------------------------------------------------------------------------

TEST(ApiFacade, RoundTripAllRegisteredCodecs) {
  const FieldF f = test::smooth_field({20, 17, 13});
  for (const auto& name : registry().names()) {
    api::Options opt;
    opt.codec = name;
    opt.eb = 1e-3;
    const Bytes stream = api::compress(f, opt);

    const auto meta = api::info(stream);
    EXPECT_EQ(meta.kind, api::StreamInfo::Kind::field) << name;
    EXPECT_EQ(meta.codec, name);
    EXPECT_EQ(meta.dims, f.dims());
    EXPECT_NEAR(meta.eb, opt.absolute_eb(f), 1e-12);

    const FieldF back = api::decompress(stream);
    ASSERT_EQ(back.dims(), f.dims()) << name;
    EXPECT_LE(test::max_abs_err(f, back), opt.absolute_eb(f) * (1 + 1e-9)) << name;
  }
}

TEST(ApiFacade, AbsoluteErrorBoundMode) {
  const FieldF f = test::smooth_field({16, 16, 16});
  api::Options opt;
  opt.eb = 0.25;
  opt.eb_mode = api::EbMode::absolute;
  const Bytes stream = api::compress(f, opt);
  EXPECT_NEAR(api::info(stream).eb, 0.25, 1e-12);
  EXPECT_LE(test::max_abs_err(f, api::decompress(stream)), 0.25 * (1 + 1e-9));
}

TEST(ApiFacade, AdaptiveSnapshotRoundTrip) {
  const FieldF f = test::smooth_field({32, 32, 32});
  api::Options opt;
  opt.roi_fraction = 0.4;
  const Bytes snapshot = api::compress_adaptive(f, opt);

  const auto meta = api::info(snapshot);
  EXPECT_EQ(meta.kind, api::StreamInfo::Kind::snapshot);
  EXPECT_EQ(meta.levels, 2u);
  EXPECT_EQ(meta.dims, f.dims());

  const auto mr = api::restore_adaptive(snapshot);
  EXPECT_EQ(mr.levels.size(), 2u);
  EXPECT_EQ(mr.fine_dims, f.dims());

  const FieldF back = api::restore(snapshot);
  EXPECT_EQ(back.dims(), f.dims());
  // ROI (fine-level) samples round-trip within the bound.
  const auto& fine = mr.levels[0];
  const double abs_eb = opt.absolute_eb(f);
  for (index_t i = 0; i < fine.data.size(); ++i)
    if (fine.mask[i]) {
      ASSERT_LE(std::abs(static_cast<double>(f[i]) - back[i]), abs_eb * (1 + 1e-9));
    }
}

// A snapshot's level l must be its header's grid coarsened 2^l-fold: the
// restore reads level 0 at the header's extents. Before the check, a 32^3
// header over 64^3 levels overflowed the restored grid, and the other three
// streams decoded without an error.
TEST(ApiFacade, SnapshotLevelsMustMatchTheHeader) {
  const FieldF f = sim::nyx_density({64, 64, 64}, 5);
  api::Options opt;
  opt.roi_block = 16;
  opt.roi_fraction = 0.5;
  const Bytes good = api::compress_adaptive(f, opt);
  ByteReader r(good);
  const auto h = detail::read_header(r, workflow::kSnapshotMagic, "snapshot");
  const auto block = r.get_varint();
  std::vector<std::span<const std::byte>> levels(r.get_varint());
  for (auto& l : levels) l = r.get_blob();
  const auto rewrap = [&](Dim3 dims, const std::vector<std::span<const std::byte>>& ls) {
    Bytes out;
    ByteWriter w(out);
    detail::write_header(w, workflow::kSnapshotMagic, dims, h.eb);
    w.put_varint(block);
    w.put_varint(ls.size());
    for (const auto l : ls) w.put_blob(l);
    return out;
  };
  ASSERT_EQ(rewrap(h.dims, levels), good);
  const std::vector<Bytes> crafted = {rewrap({32, 32, 32}, levels),
                                      rewrap({64, 64, 128}, levels),
                                      rewrap({128, 128, 128}, levels),
                                      rewrap(h.dims, {levels[0], levels[1], levels[0]})};
  for (std::size_t c = 0; c < crafted.size(); ++c)
    for (const int threads : {1, 4}) {
      EXPECT_THROW((void)api::restore(crafted[c], threads), CodecError) << c;
      EXPECT_THROW((void)api::decompress(crafted[c], threads), CodecError) << c;
      EXPECT_THROW((void)api::restore_adaptive(crafted[c], threads), CodecError) << c;
    }
}

TEST(ApiFacade, SnapshotDecodesThroughGenericDecompress) {
  const FieldF f = test::smooth_field({32, 32, 32});
  const Bytes snapshot = api::compress_adaptive(f);
  EXPECT_EQ(api::decompress(snapshot).dims(), f.dims());
}

TEST(ApiFacade, LevelStreamIdentifiedAndDecoded) {
  const FieldF f = test::smooth_field({32, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  const Bytes stream = sz3mr::compress_level(mr.levels[0], 16, 0.5, sz3mr::ours_pad_eb());
  const auto meta = api::info(stream);
  EXPECT_EQ(meta.kind, api::StreamInfo::Kind::level);
  EXPECT_EQ(meta.codec, "sz3mr");
  EXPECT_EQ(api::decompress(stream).dims(), mr.levels[0].data.dims());
}

// ---------------------------------------------------------------------------
// Container-header robustness.
// ---------------------------------------------------------------------------

TEST(ContainerHeader, TruncatedHeaderRejected) {
  const FieldF f = test::smooth_field({8, 8, 8});
  const Bytes stream = api::compress(f);
  for (const std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    const auto cut = std::span(stream).first(len);
    EXPECT_THROW((void)peek_header(cut), CodecError) << len;
    EXPECT_THROW((void)api::decompress(cut), CodecError) << len;
  }
}

TEST(ContainerHeader, ForeignBytesRejected) {
  Bytes junk(64, std::byte{0x5a});
  EXPECT_THROW((void)api::info(junk), CodecError);
  EXPECT_THROW((void)api::decompress(junk), CodecError);
}

TEST(ContainerHeader, CorruptMagicVersionAndCodecIdRejected) {
  const FieldF f = test::smooth_field({8, 8, 8});
  Bytes stream = api::compress(f);

  Bytes bad_magic = stream;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_THROW((void)api::decompress(bad_magic), CodecError);

  Bytes bad_version = stream;  // version byte follows the u32 magic
  bad_version[4] = std::byte{0xee};
  EXPECT_THROW((void)api::decompress(bad_version), CodecError);

  Bytes bad_codec = stream;  // codec magic follows magic+version
  for (int i = 5; i < 9; ++i) bad_codec[static_cast<std::size_t>(i)] = std::byte{0x11};
  EXPECT_THROW((void)api::decompress(bad_codec), CodecError);
}

TEST(ContainerHeader, PeekReportsPayloadOffset) {
  const FieldF f = test::smooth_field({8, 8, 8});
  const Bytes stream = api::compress(f);
  const auto h = peek_header(stream);
  EXPECT_GT(h.header_bytes, 9u);  // magic + version + codec id at minimum
  EXPECT_LT(h.header_bytes, stream.size());
  EXPECT_EQ(h.version, detail::kContainerVersion);
}

// ---------------------------------------------------------------------------
// Options parsing.
// ---------------------------------------------------------------------------

TEST(ApiOptions, KeyValueParsingSetsEveryKnob) {
  const auto o = api::Options::parse(
      "codec=zfpx,eb=0.5,eb_mode=abs,merge=stack,pad=0,pad_kind=quadratic,"
      "adaptive_eb=0,alpha=3,beta=9,quant_radius=256,postprocess=1,"
      "roi_block=8,roi_fraction=0.75,block_size=4,use_regression=0,threads=3,tile=48,"
      "levels=3,cache_mb=64,prefetch=0");
  EXPECT_EQ(o.codec, "zfpx");
  EXPECT_EQ(o.eb, 0.5);
  EXPECT_EQ(o.eb_mode, api::EbMode::absolute);
  EXPECT_EQ(o.merge, MergeKind::stack);
  EXPECT_FALSE(o.pad);
  EXPECT_EQ(o.pad_kind, PadKind::quadratic);
  EXPECT_EQ(o.adaptive_eb, false);
  EXPECT_EQ(o.alpha, 3.0);
  EXPECT_EQ(o.beta, 9.0);
  EXPECT_EQ(o.quant_radius, 256u);
  EXPECT_TRUE(o.postprocess);
  EXPECT_EQ(o.roi_block, 8);
  EXPECT_EQ(o.roi_fraction, 0.75);
  EXPECT_EQ(o.block_size, 4);
  EXPECT_FALSE(o.use_regression);
  EXPECT_EQ(o.threads, 3);
  EXPECT_EQ(o.tile, 48);
  EXPECT_EQ(o.levels, 3);
  EXPECT_EQ(o.cache_mb, 64.0);
  EXPECT_FALSE(o.prefetch);
  // The serving/pyramid sub-configs carry the knobs through.
  EXPECT_EQ(o.pyramid_config().levels, 3);
  EXPECT_EQ(o.pyramid_config().brick, 48);
  EXPECT_EQ(o.serve_config().cache_bytes, std::size_t{64} << 20);
  EXPECT_FALSE(o.serve_config().prefetch);
}

TEST(ApiOptions, UnknownKeyRejectedListingValidKeys) {
  // Unknown keys are rejected (never silently ignored) and the error names
  // the valid keys so CLI typos are self-explaining.
  try {
    (void)api::Options::parse("cache_bm=64");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    for (const char* key : {"codec", "eb", "tile", "levels", "cache_mb", "prefetch"})
      EXPECT_NE(msg.find(key), std::string::npos) << key;
  }
}

TEST(ApiOptions, StrRoundTrips) {
  api::Options a;
  a.codec = "lorenzo";
  a.eb = 3.5e-5;
  a.eb_mode = api::EbMode::absolute;
  a.merge = MergeKind::tac;
  a.pad_kind = PadKind::constant;
  a.roi_fraction = 0.3;
  a.threads = 4;
  a.levels = 5;
  a.cache_mb = 12.5;
  a.prefetch = false;
  const auto b = api::Options::parse(a.to_string());
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(ApiOptions, DefaultStrRoundTrips) {
  const api::Options a;
  EXPECT_EQ(api::Options::parse(a.to_string()).to_string(), a.to_string());
  EXPECT_EQ(api::Options::parse("").to_string(), a.to_string());  // empty spec = defaults
}

TEST(ApiOptions, BadInputRejected) {
  api::Options o;
  EXPECT_THROW(o.set("no_such_key", "1"), ContractError);
  EXPECT_THROW(o.set("eb", "zero point one"), ContractError);
  EXPECT_THROW(o.set("eb", "-1"), ContractError);
  EXPECT_THROW(o.set("eb_mode", "sometimes"), ContractError);
  EXPECT_THROW(o.set("merge", "diagonal"), ContractError);
  EXPECT_THROW(o.set("roi_fraction", "1.5"), ContractError);
  EXPECT_THROW(o.set("roi_fraction", "nan"), ContractError);
  EXPECT_THROW(o.set("alpha", "nan"), ContractError);
  EXPECT_THROW(o.set("threads", "-1"), ContractError);
  EXPECT_THROW(o.set("tile", "0"), ContractError);
  EXPECT_THROW(o.set("levels", "-1"), ContractError);
  EXPECT_THROW(o.set("levels", "99"), ContractError);
  EXPECT_THROW(o.set("cache_mb", "0"), ContractError);
  EXPECT_THROW(o.set("cache_mb", "-4"), ContractError);
  EXPECT_THROW(o.set("prefetch", "maybe"), ContractError);
  EXPECT_THROW((void)api::Options::parse("justakey"), ContractError);
}

TEST(ApiOptions, NarrowKeysRejectValuesTheirFieldCannotHold) {
  // 2^31 wraps a 32-bit int negative and 2^32 + 2 wraps any 32-bit field to
  // 2: both must be refused, not narrowed into a small legal value.
  for (const char* key :
       {"threads", "levels", "coarse_level", "quant_radius", "entropy_shards"})
    for (const char* value : {"2147483648", "4294967298"}) {
      api::Options o;
      EXPECT_THROW(o.set(key, value), ContractError) << key << "=" << value;
    }
}

TEST(ApiFacade, NonFiniteErrorBoundRejectedByEveryWriter) {
  // Readers reject a non-finite bound as a corrupt header, so no writer may
  // emit one — not from a parsed option, and not from a finite relative
  // bound whose absolute value overflows.
  api::Options o;
  EXPECT_THROW(o.set("eb", "inf"), ContractError);
  EXPECT_THROW(o.set("eb", "1e999"), ContractError);

  const FieldF f = test::smooth_field({16, 16, 16});
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& name : registry().names())
    EXPECT_THROW((void)registry().make(name)->compress(f, inf), ContractError) << name;

  api::Options abs_inf;
  abs_inf.eb_mode = api::EbMode::absolute;
  abs_inf.eb = inf;
  abs_inf.tile = 8;
  EXPECT_THROW((void)api::compress_tiled(f, abs_inf), ContractError);
  EXPECT_THROW((void)api::build_pyramid(f, abs_inf), ContractError);
  EXPECT_THROW((void)api::build_progressive(f, abs_inf), ContractError);
  EXPECT_THROW((void)api::compress_adaptive(f, abs_inf), ContractError);

  api::Options overflow;  // relative 1e300 of a 2e30 range is +inf
  overflow.eb = 1e300;
  FieldF wide = f;
  wide[0] = -1e30f;
  wide[1] = 1e30f;
  ASSERT_EQ(overflow.absolute_eb(wide), inf);
  EXPECT_THROW((void)api::build_progressive(wide, overflow), ContractError);
}

TEST(ApiOptions, PipelineMatchesSz3mrPreset) {
  // The default Options equal the paper's full pipeline (ours_pad_eb).
  const auto cfg = api::Options{}.pipeline();
  const auto ref = sz3mr::ours_pad_eb();
  EXPECT_EQ(cfg.merge, ref.merge);
  EXPECT_EQ(cfg.pad, ref.pad);
  EXPECT_EQ(cfg.adaptive_eb, ref.adaptive_eb);
  EXPECT_EQ(cfg.alpha, ref.alpha);
  EXPECT_EQ(cfg.beta, ref.beta);
  EXPECT_EQ(cfg.quant_radius, ref.quant_radius);
  EXPECT_EQ(cfg.postprocess, ref.postprocess);
}

TEST(ApiOptions, AdaptiveEbDefaultsPerContext) {
  // Unset: plain-codec behavior for single-field compress (same bytes as a
  // default-constructed codec), full SZ3MR for the pipeline.
  const api::Options def;
  EXPECT_FALSE(def.tuning().adaptive_eb);
  EXPECT_TRUE(def.pipeline().adaptive_eb);
  const FieldF f = test::smooth_field({16, 16, 16});
  EXPECT_EQ(api::compress(f, def),
            registry().make("interp")->compress(f, def.absolute_eb(f)));
  // Explicitly set: forced in both contexts.
  const auto forced = api::Options::parse("adaptive_eb=1");
  EXPECT_TRUE(forced.tuning().adaptive_eb);
  EXPECT_TRUE(forced.pipeline().adaptive_eb);
}

TEST(ApiOptions, ThreadsZeroMeansHardware) {
  // threads=0 resolves to the hardware width before reaching codec chunk
  // configs (which require a concrete count >= 1).
  const auto o = api::Options::parse("threads=0");
  EXPECT_GE(o.tuning().threads, 1);
  const FieldF f = test::smooth_field({16, 16, 16});
  EXPECT_EQ(api::decompress(api::compress(f, o)).dims(), f.dims());
}

TEST(ApiFacade, TiledStreamRoundTripsAndReportsGeometry) {
  const FieldF f = test::smooth_field({40, 24, 17});
  const auto opt = api::Options::parse("codec=zfpx,tile=16,threads=2,eb=1e-3");
  const Bytes stream = api::compress_tiled(f, opt);

  const auto meta = api::info(stream);
  EXPECT_EQ(meta.kind, api::StreamInfo::Kind::tiled);
  EXPECT_EQ(meta.codec, "zfpx");
  EXPECT_EQ(meta.dims, f.dims());
  EXPECT_EQ(meta.brick, 16);
  EXPECT_EQ(meta.overlap, tiled::kOverlap);
  EXPECT_EQ(meta.tile_grid, (Dim3{3, 2, 2}));
  EXPECT_EQ(meta.tiles, 12u);

  // Tiled streams decode through the generic facade entry point.
  const FieldF back = api::decompress(stream);
  ASSERT_EQ(back.dims(), f.dims());
  EXPECT_LE(test::max_abs_err(f, back), opt.absolute_eb(f) * (1 + 1e-9));

  // And a region read matches the full decompress bit-for-bit.
  const tiled::Box box{{5, 3, 2}, {23, 20, 11}};
  const FieldF region = api::read_region(stream, box, 2);
  ASSERT_EQ(region.dims(), box.extent());
  for (index_t z = 0; z < region.dims().nz; ++z)
    for (index_t y = 0; y < region.dims().ny; ++y)
      for (index_t x = 0; x < region.dims().nx; ++x)
        ASSERT_EQ(region.at(x, y, z), back.at(box.lo.x + x, box.lo.y + y, box.lo.z + z));
}

TEST(ApiFacade, AdaptiveRejectsNonInterpCodec) {
  const FieldF f = test::smooth_field({32, 32, 32});
  EXPECT_THROW((void)api::compress_adaptive(f, api::Options::parse("codec=zfpx")),
               ContractError);
}

TEST(ContainerHeader, LongThinExtentsDecodeSymmetrically) {
  // A 2^21-long 1D series exceeds no cap; what compress writes, decompress
  // must accept (guards against a decode-side cap tighter than encode's).
  FieldF f({index_t{1} << 21, 1, 1});
  for (index_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i % 97);
  const auto opt = api::Options::parse("codec=zfpx,eb_mode=abs,eb=0.5");
  EXPECT_EQ(api::decompress(api::compress(f, opt)).dims(), f.dims());
}

TEST(ContainerHeader, OverflowingExtentsRejected) {
  // nx = ny = 2^32 would wrap the nx*ny*nz product past int64; the per-axis
  // cap must reject it before the size check.
  Bytes evil;
  ByteWriter w(evil);
  w.put(detail::kContainerMagic);
  w.put(detail::kContainerVersion);
  w.put(registry().find("interp")->magic);
  w.put_varint(std::uint64_t{1} << 32);
  w.put_varint(std::uint64_t{1} << 32);
  w.put_varint(1);
  w.put(1e-3);
  EXPECT_THROW((void)peek_header(evil), CodecError);
}

TEST(ApiFacade, PyramidInfoCarriesTheFullLevelTable) {
  // mrcc info's satellite: value ranges and LOD error bounds per level must
  // be available from the O(levels) header peek, matching the level table.
  const FieldF f = test::smooth_field({40, 40, 40});
  const auto opt = api::Options::parse("tile=16,levels=3,eb_mode=abs,eb=0.01");
  const Bytes stream = api::build_pyramid(f, opt);
  const auto meta = api::info(stream);
  const auto idx = pyramid::read_geometry(stream);
  ASSERT_EQ(meta.level_meta.size(), idx.levels.size());
  for (std::size_t l = 0; l < idx.levels.size(); ++l) {
    EXPECT_EQ(meta.level_meta[l].dims, idx.levels[l].dims);
    EXPECT_EQ(meta.level_meta[l].bytes, idx.levels[l].length);
    EXPECT_EQ(meta.level_meta[l].vmin, idx.levels[l].vmin);
    EXPECT_EQ(meta.level_meta[l].vmax, idx.levels[l].vmax);
    EXPECT_EQ(meta.level_meta[l].approx_err, idx.levels[l].approx_err);
    EXPECT_GE(meta.level_meta[l].approx_err, 0.01f);
  }
  // Tiled/adaptive streams carry no level table.
  EXPECT_TRUE(api::info(api::compress_tiled(f, opt)).level_meta.empty());
}

TEST(ApiFacade, DecompressTakesAWidthForEveryContainer) {
  const FieldF f = test::smooth_field({32, 32, 32});
  const auto opt = api::Options::parse("tile=16,eb_mode=abs,eb=0.01");
  const std::vector<std::pair<std::string, Bytes>> streams = {
      {"MRCT", api::compress_tiled(f, opt)},
      {"MRCP", api::build_pyramid(f, opt)},
      {"MRCA", api::compress_adaptive_roi(f, opt)},
      {"MRCR", api::build_progressive(f, opt)},
      {"snapshot", api::compress_adaptive(f, opt)},
      {"interp", api::compress(f, opt)},
  };
  for (const auto& [name, stream] : streams) {
    const FieldF one = api::decompress(stream);
    const FieldF four = api::decompress(stream, 4);
    ASSERT_EQ(four.dims(), one.dims()) << name;
    EXPECT_EQ(std::memcmp(four.data(), one.data(),
                          static_cast<std::size_t>(one.size()) * sizeof(float)),
              0)
        << name << " decodes differently on 4 lanes";
  }
  // The width reaches MRCR's decoder: four lanes post pool tasks, one posts
  // none.
  const Bytes& mrcr = streams[3].second;
  const obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  std::uint64_t before = tasks.value();
  (void)api::decompress(mrcr);
  EXPECT_EQ(tasks.value(), before);
  before = tasks.value();
  (void)api::decompress(mrcr, 4);
  EXPECT_GT(tasks.value(), before);
}

TEST(ApiOptions, TuningReachesCodecFactory) {
  // A lorenzo built with block_size=4 must differ in stream layout from the
  // default 6^3 — proves Options knobs actually reach the factory.
  const FieldF f = test::noise_field({24, 24, 24}, 50.0);
  api::Options o4 = api::Options::parse("codec=lorenzo,block_size=4,eb_mode=abs,eb=0.1");
  api::Options o6 = api::Options::parse("codec=lorenzo,eb_mode=abs,eb=0.1");
  const auto s4 = api::compress(f, o4);
  const auto s6 = api::compress(f, o6);
  EXPECT_NE(s4.size(), s6.size());
  EXPECT_LE(test::max_abs_err(f, api::decompress(s4)), 0.1 * (1 + 1e-9));
}

}  // namespace
}  // namespace mrc
