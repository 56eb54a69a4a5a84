#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "lossless/bitstream.h"
#include "lossless/huffman.h"
#include "lossless/quant_codec.h"
#include "test_util.h"

namespace mrc::lossless {
namespace {

/// Quant-code-shaped symbols: dominant zero bin (long runs), near-zero
/// residuals, rare outlier escapes.
std::vector<std::uint32_t> make_codes(std::size_t n, std::uint32_t radius,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> codes;
  codes.reserve(n);
  while (codes.size() < n) {
    const double u = rng.uniform();
    if (u < 0.55)
      codes.push_back(radius);
    else if (u < 0.97)
      codes.push_back(radius + static_cast<std::uint32_t>(rng.uniform_index(31)) - 15);
    else
      codes.push_back(0);
  }
  return codes;
}

TEST(ShardedQuantCodec, NegotiationRule) {
  // min(requested, kMaxEntropyShards, n / kMinShardSymbols), floored at 1.
  EXPECT_EQ(negotiate_entropy_shards(0, 8), 1u);
  EXPECT_EQ(negotiate_entropy_shards(kMinShardSymbols - 1, 8), 1u);
  EXPECT_EQ(negotiate_entropy_shards(2 * kMinShardSymbols, 8), 2u);
  EXPECT_EQ(negotiate_entropy_shards(8 * kMinShardSymbols, 8), 8u);
  EXPECT_EQ(negotiate_entropy_shards(8 * kMinShardSymbols, 3), 3u);
  EXPECT_EQ(negotiate_entropy_shards(std::uint64_t{1} << 36, 1u << 20),
            kMaxEntropyShards);
  EXPECT_EQ(negotiate_entropy_shards(1 << 20, 0), 1u);
  EXPECT_EQ(negotiate_entropy_shards(1 << 20, 1), 1u);
}

TEST(ShardedQuantCodec, ShardsLe1IsExactlyMonolithic) {
  const std::uint32_t radius = 512;
  const auto codes = make_codes(50000, radius, 3);
  EXPECT_EQ(encode_quant_codes_sharded(codes, radius, 1),
            encode_quant_codes(codes, radius));
  // Too few symbols per shard: the request negotiates down to monolithic.
  const auto tiny = make_codes(kMinShardSymbols, radius, 4);
  EXPECT_EQ(encode_quant_codes_sharded(tiny, radius, 16),
            encode_quant_codes(tiny, radius));
}

TEST(ShardedQuantCodec, RoundTripAcrossShardCounts) {
  const std::uint32_t radius = 512;
  const auto codes = make_codes(64 * 1024, radius, 11);
  for (const std::uint32_t shards : {2u, 3u, 7u, 16u}) {
    const Bytes enc = encode_quant_codes_sharded(codes, radius, shards);
    ASSERT_TRUE(is_sharded_quant_stream(enc)) << shards << " shards";
    EXPECT_EQ(quant_stream_shards(enc),
              negotiate_entropy_shards(codes.size(), shards));
    EXPECT_EQ(decode_quant_codes(enc, radius), codes) << shards << " shards";
    AlignedVec<std::uint32_t> out;
    decode_quant_codes_into(enc, radius, out, codes.size());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), codes.begin(), codes.end()));
  }
  const Bytes mono = encode_quant_codes(codes, radius);
  EXPECT_FALSE(is_sharded_quant_stream(mono));
  EXPECT_EQ(quant_stream_shards(mono), 1u);
}

TEST(ShardedQuantCodec, AllZeroAndAllOutlierInputs) {
  const std::uint32_t radius = 8;
  const std::vector<std::uint32_t> zeros(40000, radius);
  const std::vector<std::uint32_t> escapes(40000, 0u);
  for (const auto* codes : {&zeros, &escapes}) {
    const Bytes enc = encode_quant_codes_sharded(*codes, radius, 4);
    ASSERT_TRUE(is_sharded_quant_stream(enc));
    EXPECT_EQ(decode_quant_codes(enc, radius), *codes);
  }
}

TEST(ShardedQuantCodec, BytesInvariantToThreadCount) {
  // Encode is deterministic by construction; decode must produce identical
  // bytes on any lane count, and at the default width.
  const std::uint32_t radius = 512;
  const auto codes = make_codes(96 * 1024, radius, 21);
  const Bytes enc = encode_quant_codes_sharded(codes, radius, 8);
  ASSERT_TRUE(is_sharded_quant_stream(enc));

  AlignedVec<std::uint32_t> implicit_out;
  decode_quant_codes_into(enc, radius, implicit_out, codes.size());
  for (const int lanes : {1, 2, 4, 8}) {
    AlignedVec<std::uint32_t> out;
    decode_quant_codes_into(enc, radius, out, codes.size(), lanes);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), codes.begin(), codes.end()))
        << lanes << " lanes";
    EXPECT_TRUE(
        std::equal(out.begin(), out.end(), implicit_out.begin(), implicit_out.end()))
        << lanes << " lanes vs implicit";
  }
}

// ---------------------------------------------------------------------------
// Hostile shard tables. The fixture re-encodes a known stream, then rewrites
// individual header fields through a BitWriter replay so each lie is surgical
// (layout: 48-bit marker, 8-bit version, 48-bit n, 16-bit W, codebook,
// W x (48-bit off, 48-bit len, 48-bit count), pad, chunks).

struct ShardParts {
  std::uint64_t n = 0;
  std::uint32_t w = 0;
  std::vector<std::array<std::uint64_t, 3>> table;  // off, len, count
  Bytes payload;
  std::size_t header_bits = 0;  // marker..pad, in bits, codebook included
};

/// Splits a valid sharded stream into editable parts.
ShardParts dissect(const Bytes& enc, std::uint32_t radius) {
  ShardParts p;
  BitReader br(enc);
  EXPECT_EQ(br.read_bits(48), 0xFFFF'FFFF'FFFFull);
  EXPECT_EQ(br.read_bits(8), 1u);
  p.n = br.read_bits(48);
  p.w = static_cast<std::uint32_t>(br.read_bits(16));
  const auto cb = HuffmanCodebook::deserialize(br);  // advances br past it
  (void)cb;
  (void)radius;
  p.table.resize(p.w);
  for (auto& e : p.table) {
    e[0] = br.read_bits(48);
    e[1] = br.read_bits(48);
    e[2] = br.read_bits(48);
  }
  const std::size_t payload_start = (br.bit_position() + 7) / 8;
  p.payload.assign(enc.begin() + static_cast<std::ptrdiff_t>(payload_start), enc.end());
  p.header_bits = payload_start * 8;
  return p;
}

/// Rebuilds a sharded stream from (possibly doctored) parts. The codebook
/// bit run is replayed bit-for-bit so only the lied-about fields change.
Bytes rebuild(const ShardParts& p, const HuffmanCodebook& cb) {
  BitWriter bw;
  bw.write_bits(0xFFFF'FFFF'FFFFull, 48);
  bw.write_bits(1, 8);
  bw.write_bits(p.n, 48);
  bw.write_bits(p.w, 16);
  cb.serialize(bw);
  for (const auto& e : p.table) {
    bw.write_bits(e[0], 48);
    bw.write_bits(e[1], 48);
    bw.write_bits(e[2], 48);
  }
  Bytes out = bw.take();
  out.insert(out.end(), p.payload.begin(), p.payload.end());
  return out;
}

class HostileShardTable : public ::testing::Test {
 protected:
  void SetUp() override {
    codes_ = make_codes(64 * 1024, radius_, 17);
    enc_ = encode_quant_codes_sharded(codes_, radius_, 4);
    ASSERT_TRUE(is_sharded_quant_stream(enc_));
    parts_ = dissect(enc_, radius_);
    ASSERT_EQ(parts_.w, 4u);
    BitReader br(enc_);
    (void)br.read_bits(48);
    (void)br.read_bits(8);
    (void)br.read_bits(48);
    (void)br.read_bits(16);
    cb_ = HuffmanCodebook::deserialize(br);
  }

  /// The decode must throw before `out` is sized from hostile metadata.
  void expect_rejected(const Bytes& doctored) {
    AlignedVec<std::uint32_t> out;
    EXPECT_THROW(decode_quant_codes_into(doctored, radius_, out, codes_.size()),
                 CodecError);
    EXPECT_TRUE(out.empty()) << "buffer sized from a hostile shard table";
  }

  std::uint32_t radius_ = 512;
  std::vector<std::uint32_t> codes_;
  Bytes enc_;
  ShardParts parts_;
  HuffmanCodebook cb_;
};

TEST_F(HostileShardTable, SanityRebuildRoundTrips) {
  // The doctoring rig itself must be lossless before any lie is trusted.
  const Bytes same = rebuild(parts_, cb_);
  ASSERT_EQ(same, enc_);
}

TEST_F(HostileShardTable, OverlappingOffsetsRejected) {
  ShardParts p = parts_;
  p.table[2][0] = p.table[1][0];  // shard 2 claims shard 1's bytes
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, OutOfRangeOffsetRejected) {
  ShardParts p = parts_;
  p.table[3][0] = p.payload.size() + 4096;  // beyond the payload
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, GapBetweenChunksRejected) {
  ShardParts p = parts_;
  p.table[1][0] += 1;  // 1-byte hole after chunk 0
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, LyingLengthRejected) {
  ShardParts p = parts_;
  p.table[0][1] += 7;  // table no longer covers the payload exactly
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, ZeroLengthChunkRejected) {
  ShardParts p = parts_;
  p.table[1][1] = 0;
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, LyingCountsRejected) {
  // Counts shuffled between shards still sum to n — each shard's decode is
  // bounded by its validated chunk, so the stream must fail, not overrun.
  ShardParts p = parts_;
  p.table[0][2] += 1000;
  p.table[1][2] -= 1000;
  AlignedVec<std::uint32_t> out;
  EXPECT_THROW(decode_quant_codes_into(rebuild(p, cb_), radius_, out, codes_.size()),
               CodecError);
}

TEST_F(HostileShardTable, CountSumMismatchRejected) {
  ShardParts p = parts_;
  p.table[0][2] += 1;  // sum != n
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, HugePerShardCountRejected) {
  ShardParts p = parts_;
  p.table[0][2] = (std::uint64_t{1} << 47);  // count > n: rejected pre-sum
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, ZeroCountShardRejected) {
  ShardParts p = parts_;
  p.table[3][2] = 0;
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, BadShardCountRejected) {
  for (const std::uint32_t w : {0u, 1u, kMaxEntropyShards + 1}) {
    ShardParts p = parts_;
    p.w = w;  // table entries no longer parse consistently either way
    expect_rejected(rebuild(p, cb_));
  }
}

TEST_F(HostileShardTable, UnknownLayoutVersionRejected) {
  Bytes doctored = enc_;
  doctored[6] = std::byte{0x02};  // version byte follows the 6-byte marker
  expect_rejected(doctored);
}

TEST_F(HostileShardTable, TotalCountMismatchRejected) {
  ShardParts p = parts_;
  p.n += 1;  // header total disagrees with the caller's geometry
  expect_rejected(rebuild(p, cb_));
}

TEST_F(HostileShardTable, TruncatedStreamRejected) {
  for (const std::size_t keep : {std::size_t{5}, std::size_t{14}, enc_.size() / 2,
                                 enc_.size() - 1}) {
    const Bytes cut(enc_.begin(), enc_.begin() + static_cast<std::ptrdiff_t>(keep));
    AlignedVec<std::uint32_t> out;
    EXPECT_THROW(decode_quant_codes_into(cut, radius_, out, codes_.size()),
                 CodecError)
        << keep << " bytes kept";
  }
}

TEST_F(HostileShardTable, ExhaustiveByteFlipFuzz) {
  // Every single-byte corruption anywhere in the stream must either decode
  // to a symbol array of exactly the expected geometry (an entropy stream
  // has no checksum, so payload flips can legally decode to garbage values)
  // or throw CodecError — never crash, hang, or mis-size a buffer. The
  // fixed-layout prefix (marker, version, total count, shard count: bytes
  // 0..14) is unconditionally load-bearing and must always be detected.
  constexpr std::size_t kFixedPrefix = 15;  // 48+8+48+16 bits
  Bytes doctored = enc_;
  std::size_t threw = 0, survived = 0;
  for (std::size_t i = 0; i < doctored.size(); ++i) {
    const std::byte orig = doctored[i];
    doctored[i] = orig ^ std::byte{0xA5};
    AlignedVec<std::uint32_t> out;
    try {
      decode_quant_codes_into(doctored, radius_, out, codes_.size());
      ASSERT_EQ(out.size(), codes_.size()) << "flip at byte " << i;
      ASSERT_GE(i, kFixedPrefix) << "undetected flip in the fixed prefix";
      ++survived;
    } catch (const CodecError&) {
      ++threw;
    }
    doctored[i] = orig;
  }
  EXPECT_GE(threw, kFixedPrefix);  // at minimum, the whole fixed prefix
  EXPECT_EQ(threw + survived, doctored.size());
}

// ---------------------------------------------------------------------------
// Container-level negotiation: v7 headers appear exactly when a writer was
// asked for shards and the stream is big enough, and decode is identical.

TEST(ShardedContainers, InterpV7RoundTripAndV6Stability) {
  const Dim3 d{48, 40, 40};  // 76800 cells: 4 shards negotiate through intact
  const FieldF f = test::smooth_field(d);
  const double eb = 1e-3;

  InterpConfig plain;
  const InterpCompressor v6(plain);
  const Bytes s6 = v6.compress(f, eb);
  EXPECT_EQ(peek_header(s6).version, 6u);
  EXPECT_EQ(peek_header(s6).entropy_shards, 1u);

  InterpConfig cfg;
  cfg.entropy_shards = 4;
  const InterpCompressor v7(cfg);
  const Bytes s7 = v7.compress(f, eb);
  const StreamHeader h7 = peek_header(s7);
  EXPECT_EQ(h7.version, 7u);
  EXPECT_EQ(h7.entropy_shards, 4u);

  // Identical reconstruction through either layout, decoded by either
  // configuration (the stream self-describes).
  const FieldF r6 = v6.decompress(s6);
  const FieldF r7 = v6.decompress(s7);
  ASSERT_EQ(r6.dims(), r7.dims());
  for (index_t i = 0; i < r6.size(); ++i) ASSERT_EQ(r6[i], r7[i]) << i;

  // Asking for shards twice produces identical bytes (determinism), and the
  // unsharded writer is untouched by the feature existing.
  EXPECT_EQ(v7.compress(f, eb), s7);
  EXPECT_EQ(v6.compress(f, eb), s6);
}

TEST(ShardedContainers, InterpSmallStreamNegotiatesBackToV6) {
  // Below kMinShardSymbols per shard the negotiated count is 1 and the
  // writer must emit frozen v6 bytes even though shards were requested.
  const Dim3 d{12, 12, 12};
  const FieldF f = test::smooth_field(d);
  InterpConfig cfg;
  cfg.entropy_shards = 8;
  const InterpCompressor c(cfg);
  const Bytes s = c.compress(f, 1e-3);
  EXPECT_EQ(peek_header(s).version, 6u);
  EXPECT_EQ(s, InterpCompressor().compress(f, 1e-3));
}

TEST(ShardedContainers, LorenzoV7RoundTrip) {
  const Dim3 d{40, 40, 40};
  const FieldF f = test::noise_field(d, 3.0, 5);
  const double eb = 1e-2;
  LorenzoConfig cfg;
  cfg.entropy_shards = 4;
  const LorenzoCompressor sharded(cfg);
  const LorenzoCompressor plain;

  const Bytes s7 = sharded.compress(f, eb);
  const Bytes s6 = plain.compress(f, eb);
  EXPECT_EQ(peek_header(s7).version, 7u);
  EXPECT_EQ(peek_header(s7).entropy_shards, 4u);
  EXPECT_EQ(peek_header(s6).version, 6u);

  const FieldF r7 = plain.decompress(s7);
  const FieldF r6 = plain.decompress(s6);
  for (index_t i = 0; i < r6.size(); ++i) ASSERT_EQ(r6[i], r7[i]) << i;
}

TEST(ShardedContainers, ApiWiresEntropyShards) {
  const Dim3 d{48, 40, 40};
  const FieldF f = test::smooth_field(d);
  auto opt = api::Options::parse("codec=interp,eb=1e-3,eb_mode=abs,entropy_shards=4");
  EXPECT_EQ(opt.entropy_shards, 4u);
  const Bytes s = api::compress(f, opt);
  const auto meta = api::info(s);
  EXPECT_EQ(meta.version, 7u);
  EXPECT_EQ(meta.entropy_shards, 4u);
  const FieldF back = api::decompress(s);
  EXPECT_LE(test::max_abs_err(f, back), 1e-3);

  // Round-trips through the option string, and the default stays v6.
  EXPECT_EQ(api::Options::parse(opt.to_string()).entropy_shards, 4u);
  EXPECT_EQ(api::info(api::compress(f, api::Options::parse("eb=1e-3,eb_mode=abs")))
                .entropy_shards,
            1u);
  EXPECT_THROW(api::Options::parse("entropy_shards=0"), ContractError);
  EXPECT_THROW(api::Options::parse("entropy_shards=1000000"), ContractError);
}

TEST(ShardedContainers, TiledBricksCarryShardedStreams) {
  // The tiled container forwards tuning to per-brick codecs: bricks big
  // enough to negotiate shards write v7 brick streams, and the container
  // reconstruction matches the unsharded one exactly.
  const Dim3 d{72, 48, 48};
  const FieldF f = test::smooth_field(d);
  auto opt = api::Options::parse("codec=interp,eb=1e-3,eb_mode=abs,tile=48");
  const Bytes plain = api::compress_tiled(f, opt);
  opt.entropy_shards = 8;
  const Bytes sharded = api::compress_tiled(f, opt);

  const FieldF a = api::decompress(plain);
  const FieldF b = api::decompress(sharded);
  for (index_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;

  // At least one brick stream actually carries a v7 header.
  const tiled::Index idx = tiled::read_index(sharded);
  bool saw_v7 = false;
  for (const auto& e : idx.tiles) {
    const auto brick = std::span<const std::byte>(sharded).subspan(
        idx.payload_offset + static_cast<std::size_t>(e.offset),
        static_cast<std::size_t>(e.length));
    if (peek_header(brick).entropy_shards > 1) saw_v7 = true;
  }
  EXPECT_TRUE(saw_v7);
}

}  // namespace
}  // namespace mrc::lossless
