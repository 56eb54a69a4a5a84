// Frozen-bytes golden tests: the entropy coders and the three codecs must
// produce byte-identical streams forever. The expected sizes and FNV-1a
// hashes below were captured from the pre-word-at-a-time (bit-at-a-time)
// coder on fixed seeds; any byte-level drift in BitWriter/BitReader,
// HuffmanCodebook, the quant codec, or a codec's stream layout fails here
// before it can silently orphan every existing MRC1/MRCT/MRCP/MRCA stream.
//
// The container goldens include the shared MRC1 header, whose version byte
// advances with each new container kind (deliberate, readers accept any
// version up to the current one) — a bump re-pins those three hashes, with
// the stream size asserting that nothing beyond that one byte moved. The
// current hashes are for container version 6 (the MRCR bump); the
// entropy-layer goldens above them are version-independent and must never
// change.
//
// The last three goldens pin bytes that depend on trilinear prolongation:
// the prolonged samples themselves, an MRCR stream (every residual level is
// taken against a prolonged reconstruction) and an MRCP stream (whose level
// table stores approx_err from prolong_error). A prolongation kernel that
// drifts by one ulp anywhere fails here.
//
// QuantizeContainer and ProgressiveContainerQuantizeResiduals pin the
// quantize codec's bytes, bare and as MRCR's residual codec.
//
// WireReplyFrames pins what a Server sends back for those streams: the
// region_ok frame, the multi-frame progressive_ok reply and the trace-id
// stamping of both, so the reply encoders can be rewritten without a byte
// moving on the wire.
//
// SnapshotContainer pins an in-situ snapshot (MRCS with its MRL1 level
// streams) at one lane and at four, and the uniform grid api::restore
// rebuilds from it.
//
// Sz3mrLevelStreams pins one MRL1 level stream per sz3mr preset and level of
// a two-level hierarchy, and the level each decodes to, so every merge
// layout's gather and scatter (linear, stack with tail slots, several TAC
// boxes; padded and post-processed) keeps its bytes.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>

#include "common/rng.h"
#include "api/mrc_api.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantize/quantize_compressor.h"
#include "compressors/zfpx/zfpx_compressor.h"
#include "core/sz3mr.h"
#include "grid/field_ops.h"
#include "lossless/bitstream.h"
#include "lossless/huffman.h"
#include "lossless/quant_codec.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "serve/server.h"
#include "tiled/tiled.h"

namespace mrc {
namespace {

using lossless::BitReader;
using lossless::BitWriter;
using lossless::HuffmanCodebook;

/// `h` continues a previous hash, so fnv1a(b, fnv1a(a)) hashes a then b.
std::uint64_t fnv1a(std::span<const std::byte> b, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (auto c : b) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(FrozenFormat, BitstreamMixedWidths) {
  Rng rng(3);
  BitWriter bw;
  for (int i = 0; i < 500; ++i) {
    const int n = static_cast<int>(rng.uniform_index(65));
    bw.write_bits(rng.next_u64(), n);
  }
  const Bytes b = bw.take();
  EXPECT_EQ(b.size(), 2011u);
  EXPECT_EQ(fnv1a(b), 0xfc9c416cd350dc79ull);
}

TEST(FrozenFormat, HuffmanOneShot) {
  Rng rng(42);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 4096; ++i) {
    const double u = rng.uniform();
    syms.push_back(u < 0.6 ? 0
                   : u < 0.8 ? 1 + static_cast<std::uint32_t>(rng.uniform_index(7))
                             : static_cast<std::uint32_t>(rng.uniform_index(300)));
  }
  const Bytes b = lossless::huffman_encode(syms, 300);
  EXPECT_EQ(b.size(), 2109u);
  EXPECT_EQ(fnv1a(b), 0x1de72b1cad13ba7eull);
  EXPECT_EQ(lossless::huffman_decode(b), syms);
}

TEST(FrozenFormat, QuantCodec) {
  Rng rng(7);
  const std::uint32_t radius = 512;
  std::vector<std::uint32_t> codes;
  while (codes.size() < 8192) {
    const double u = rng.uniform();
    if (u < 0.5) {
      const auto run = 1 + rng.uniform_index(40);
      for (std::uint64_t k = 0; k < run; ++k) codes.push_back(radius);
    } else if (u < 0.97) {
      codes.push_back(radius + static_cast<std::uint32_t>(rng.uniform_index(41)) - 20);
    } else {
      codes.push_back(0);
    }
  }
  codes.resize(8192);
  const Bytes b = lossless::encode_quant_codes(codes, radius);
  EXPECT_EQ(b.size(), 619u);
  EXPECT_EQ(fnv1a(b), 0xd71d8be9269cded7ull);
  EXPECT_EQ(lossless::decode_quant_codes(b, radius), codes);
}

TEST(FrozenFormat, CodebookSerializationBytes) {
  std::vector<std::uint64_t> freqs(1000, 0);
  freqs[3] = 500;
  freqs[17] = 100;
  freqs[999] = 1;
  freqs[500] = 40;
  freqs[501] = 39;
  const auto cb = HuffmanCodebook::from_frequencies(freqs);
  BitWriter bw;
  cb.serialize(bw);
  for (std::uint32_t s : {3u, 999u, 17u, 500u, 501u, 3u, 3u}) cb.encode(bw, s);
  const Bytes b = bw.take();
  const Bytes expect{std::byte{0xe8}, std::byte{0x03}, std::byte{0x00}, std::byte{0x05},
                     std::byte{0x00}, std::byte{0x00}, std::byte{0x24}, std::byte{0xc0},
                     std::byte{0x0b}, std::byte{0x00}, std::byte{0xc9}, std::byte{0x07},
                     std::byte{0x11}, std::byte{0x00}, std::byte{0xe7}, std::byte{0x09},
                     std::byte{0xdf}, std::byte{0x0e}};
  EXPECT_EQ(b, expect);
}

/// Deterministic field shared by the codec-level goldens.
FieldF golden_field() {
  const Dim3 d{20, 17, 13};
  FieldF f(d);
  Rng rng(11);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(std::sin(0.3 * x) * std::cos(0.2 * y) +
                                           0.05 * z + 0.01 * rng.uniform());
  return f;
}

TEST(FrozenFormat, InterpContainer) {
  const auto s = InterpCompressor().compress(golden_field(), 1e-3);
  EXPECT_EQ(s.size(), 2428u);
  EXPECT_EQ(fnv1a(s), 0x08a028461049212bull);
}

TEST(FrozenFormat, LorenzoContainer) {
  const auto s = LorenzoCompressor().compress(golden_field(), 1e-3);
  EXPECT_EQ(s.size(), 2583u);
  EXPECT_EQ(fnv1a(s), 0x0a2057a126f5c728ull);
}

TEST(FrozenFormat, ZfpxContainer) {
  const auto s = ZfpxCompressor().compress(golden_field(), 1e-3);
  EXPECT_EQ(s.size(), 6693u);
  EXPECT_EQ(fnv1a(s), 0x319cbaada213c495ull);
}

TEST(FrozenFormat, QuantizeContainer) {
  const auto s = QuantizeCompressor().compress(golden_field(), 1e-3);
  EXPECT_EQ(s.size(), 8135u);
  EXPECT_EQ(fnv1a(s), 0xc7bf42709db095c6ull);
}

TEST(FrozenFormat, TrilinearProlongation) {
  const FieldF f = golden_field();
  const FieldF p = prolong_trilinear(restrict_half(f), f.dims());
  EXPECT_EQ(fnv1a(std::as_bytes(p.span())), 0x678ba896f5393873ull);
}

TEST(FrozenFormat, ProgressiveContainer) {
  progressive::Config cfg;
  cfg.brick = 8;
  cfg.levels = 3;
  const auto s = progressive::build(golden_field(), 1e-3, cfg);
  EXPECT_EQ(s.size(), 5913u);
  EXPECT_EQ(fnv1a(s), 0x0e2a7e4f757dfc14ull);
}

TEST(FrozenFormat, ProgressiveContainerQuantizeResiduals) {
  progressive::Config cfg;
  cfg.resid_codec = "quantize";
  cfg.brick = 8;
  cfg.levels = 3;
  const auto s = progressive::build(golden_field(), 1e-3, cfg);
  EXPECT_EQ(s.size(), 8778u);
  EXPECT_EQ(fnv1a(s), 0x1055bb3be5ce2cefull);
}

TEST(FrozenFormat, PyramidContainer) {
  pyramid::Config cfg;
  cfg.brick = 8;
  cfg.levels = 3;
  const auto s = pyramid::build(golden_field(), 1e-3, cfg);
  EXPECT_EQ(s.size(), 6821u);
  EXPECT_EQ(fnv1a(s), 0x1cb8aedfc07007a7ull);
}

TEST(FrozenFormat, WireReplyFrames) {
  tiled::Config tcfg;
  tcfg.brick = 8;
  progressive::Config pcfg;
  pcfg.brick = 8;
  pcfg.levels = 3;
  serve::ServerConfig scfg;
  scfg.threads = 2;
  scfg.prefetch = false;
  serve::Server srv(scfg);
  const std::uint32_t mrct = srv.open(tiled::compress(golden_field(), 1e-3, tcfg));
  const std::uint32_t mrcr =
      srv.open(progressive::build(golden_field(), 1e-3, pcfg));

  // Requests are built by hand, independent of the wire encoder: u32
  // length, u8 type (| 0x10 when traced), u32 dataset id, i32 level 0, the
  // box as 6 x i64, then the u64 trace id when traced. The box straddles
  // bricks on every axis.
  const auto request = [](std::uint8_t type, std::uint32_t id, std::uint64_t trace) {
    Bytes body;
    ByteWriter w(body);
    w.put<std::uint32_t>(id);
    w.put<std::int32_t>(0);
    for (const std::int64_t v : {3, 2, 1, 13, 11, 9}) w.put<std::int64_t>(v);
    if (trace != 0) w.put<std::uint64_t>(trace);
    Bytes frame;
    ByteWriter f(frame);
    f.put<std::uint32_t>(static_cast<std::uint32_t>(body.size() + 1));
    f.put<std::uint8_t>(trace != 0 ? static_cast<std::uint8_t>(type | 0x10) : type);
    f.put_bytes(body);
    return frame;
  };
  constexpr std::uint8_t kRegion = 0x02, kProgressive = 0x08;
  struct Case {
    const char* what;
    std::uint8_t type;
    std::uint32_t id;
    std::uint64_t trace;
    std::size_t size;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"MRCT region", kRegion, mrct, 0, 2909u, 0xc576162687964d99ull},
      {"MRCT region, traced", kRegion, mrct, 0x5151, 2917u, 0x473c186190295c6bull},
      {"MRCR region", kRegion, mrcr, 0, 2909u, 0x2f481f4c42b2e688ull},
      {"MRCR region, traced", kRegion, mrcr, 0x5151, 2917u, 0xfedfd9ae42581c46ull},
      {"MRCR progressive", kProgressive, mrcr, 0, 4454u, 0x6836b518d607237aull},
      {"MRCR progressive, traced", kProgressive, mrcr, 0x5151, 4478u, 0x04a5389246573648ull},
  };
  for (const Case& c : cases) {
    const Bytes reply = srv.handle_frame(request(c.type, c.id, c.trace));
    EXPECT_EQ(reply.size(), c.size) << c.what;
    EXPECT_EQ(fnv1a(reply), c.hash) << c.what;
  }
}

/// 96^3 keeps the snapshot's level 0 large enough for every multi-lane
/// path at four lanes: 108 of its 216 16^3 blocks stay at full resolution,
/// so the padded merge is 17 x 17 x 1728 samples. Its stride-1 and
/// stride-2 z sweeps hold 249,696 and 34,992 targets, its 499,392 codes are
/// one Huffman stream, and its decode scatters 108 blocks: each large
/// enough to split at four lanes.
FieldF snapshot_field() {
  const Dim3 d{96, 96, 96};
  FieldF f(d);
  Rng rng(23);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(
            std::sin(0.13 * x) * std::cos(0.09 * y) * (1.0 + 0.02 * z) +
            0.5 * std::exp(-0.002 * ((x - 60.0) * (x - 60.0) + (y - 30.0) * (y - 30.0) +
                                     (z - 50.0) * (z - 50.0))) +
            0.02 * rng.uniform());
  return f;
}

TEST(FrozenFormat, SnapshotContainer) {
  const FieldF f = snapshot_field();
  for (const int threads : {1, 4}) {
    api::Options opt;
    opt.eb = 1e-3;
    opt.threads = threads;
    const Bytes s = api::compress_adaptive(f, opt);
    EXPECT_EQ(s.size(), 291762u) << threads << " lanes";
    EXPECT_EQ(fnv1a(s), 0xea27f657414d8aaeull) << threads << " lanes";
    const FieldF back = api::restore(s);
    EXPECT_EQ(fnv1a(std::as_bytes(back.span())), 0xa677e898591654aeull)
        << threads << " lanes";
  }
}

/// 64^3 cut into 16^3 blocks, the top 30% kept at level 0: 19 blocks at
/// unit 16 (stack arrangement 3 x 3 x 3, 8 tail slots) and 45 at unit 8 on
/// the 32^3 level 1 (4 x 4 x 3, 3 tail slots).
MultiResField level_streams_hierarchy() {
  const Dim3 d{64, 64, 64};
  FieldF f(d);
  Rng rng(31);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(
            std::sin(0.21 * x) * std::cos(0.17 * y + 0.05 * z) +
            2.0 * std::exp(-0.004 * ((x - 40.0) * (x - 40.0) + (y - 20.0) * (y - 20.0) +
                                     (z - 30.0) * (z - 30.0))) +
            0.05 * rng.uniform());
  const std::array<double, 2> fr{0.3, 0.7};
  return amr::build_hierarchy(f, 16, fr);
}

TEST(FrozenFormat, Sz3mrLevelStreams) {
  // At eb 0.1, about 2.5% of the range, the Bezier tuning keeps nonzero
  // intensities on both levels, so `processed` decodes through the pad
  // strip and the post-process.
  const MultiResField mr = level_streams_hierarchy();
  ASSERT_EQ(mr.levels.size(), 2u);
  struct Golden {
    const char* preset;
    sz3mr::Config cfg;
    std::size_t size[2];
    std::uint64_t stream[2];
    std::uint64_t level[2];  ///< decoded data, then mask
  };
  const Golden goldens[] = {
      {"baseline", sz3mr::baseline_sz3(), {7733u, 3793u},
       {0xe3805ec889cf975bull, 0x65611c77f7862ec2ull},
       {0xc5fbdcfc6974394bull, 0x10912f9b97254aeaull}},
      {"amric", sz3mr::amric_sz3(), {11442u, 3978u},
       {0x518cdbcef2e62027ull, 0x1ca3466a5d8aa1d6ull},
       {0xe688a06eca8709d9ull, 0xda79bc42edf65938ull}},
      {"tac", sz3mr::tac_sz3(), {4179u, 2750u},
       {0x5110f05473478886ull, 0x793a3181ea9597f8ull},
       {0x462ff0230b211d92ull, 0x2198971a2cbe12d6ull}},
      {"pad", sz3mr::ours_pad(), {7959u, 4195u},
       {0x300740ee3e619504ull, 0xaaaccb0bf450ca39ull},
       {0xf92dabe12ef9ca0eull, 0xd2671aba40515968ull}},
      {"pad_eb", sz3mr::ours_pad_eb(), {8222u, 4475u},
       {0x1f7fd91fe6afe839ull, 0x3a952d164f155518ull},
       {0x9f6a4c611c949029ull, 0xa26385df2040068dull}},
      {"processed", sz3mr::ours_processed(), {8246u, 4499u},
       {0x19936c2406f27d3eull, 0xcff1253d5ad2951aull},
       {0x656fc894be869f93ull, 0x71618800ba8a214eull}},
  };
  for (const Golden& g : goldens)
    for (std::size_t l = 0; l < 2; ++l)
      for (const int threads : {1, 4}) {
        const LevelData& level = mr.levels[l];
        sz3mr::Config cfg = g.cfg;
        cfg.threads = threads;
        const Bytes s = sz3mr::compress_level(level, 16 / level.ratio, 1e-1, cfg);
        const LevelData back = sz3mr::decompress_level(s, threads);
        const std::uint64_t decoded = fnv1a(std::as_bytes(back.mask.span()),
                                            fnv1a(std::as_bytes(back.data.span())));
        EXPECT_EQ(s.size(), g.size[l]) << g.preset << " level " << l << ", " << threads;
        EXPECT_EQ(fnv1a(s), g.stream[l]) << g.preset << " level " << l << ", " << threads;
        EXPECT_EQ(decoded, g.level[l]) << g.preset << " level " << l << ", " << threads;
      }
  // The layouts this pins: TAC cuts level 0 into several boxes, and both
  // stack arrangements end in tail slots.
  EXPECT_GE(sz3mr::prepare_level(mr.levels[0], 16, sz3mr::tac_sz3()).boxes.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    const index_t unit = 16 / mr.levels[l].ratio;
    const auto prep = sz3mr::prepare_level(mr.levels[l], unit, sz3mr::amric_sz3());
    EXPECT_GT(prep.merged.size(), prep.set.block_count() * unit * unit * unit) << l;
  }
}

}  // namespace
}  // namespace mrc
