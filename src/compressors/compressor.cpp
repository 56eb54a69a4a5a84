#include "compressors/compressor.h"

#include <cmath>
#include <cstring>

#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {
// First container version whose shared header carries the entropy shard
// count (detail::kContainerVersionSharded; local alias keeps parse_header
// readable).
constexpr unsigned kSharedHeaderShardVersion = detail::kContainerVersionSharded;
}  // namespace

double compression_ratio(index_t n_values, std::size_t compressed_bytes) {
  MRC_REQUIRE(compressed_bytes > 0, "empty compressed stream");
  return static_cast<double>(n_values) * sizeof(float) /
         static_cast<double>(compressed_bytes);
}

RoundTrip round_trip(const Compressor& c, const FieldF& f, double abs_eb) {
  auto stream = c.compress(f, abs_eb);
  RoundTrip rt;
  rt.compressed_bytes = stream.size();
  rt.ratio = compression_ratio(f.size(), stream.size());
  rt.reconstructed = c.decompress(stream);
  return rt;
}

namespace {

StreamHeader parse_header(ByteReader& r, const char* who) {
  StreamHeader h;
  if (r.get<std::uint32_t>() != detail::kContainerMagic)
    throw CodecError(std::string(who) + ": not an mrcomp stream");
  h.version = r.get<std::uint8_t>();
  if (h.version == 0 || h.version > detail::kContainerVersionMax)
    throw CodecError(std::string(who) + ": unsupported stream version " +
                     std::to_string(h.version));
  h.codec_magic = r.get<std::uint32_t>();
  h.dims.nx = static_cast<index_t>(r.get_varint());
  h.dims.ny = static_cast<index_t>(r.get_varint());
  h.dims.nz = static_cast<index_t>(r.get_varint());
  h.eb = r.get<double>();
  // Corrupt streams must fail cleanly, not attempt absurd allocations. The
  // total-size check is division-based so the nx*ny*nz product can never
  // overflow index_t, whatever the individual extents claim.
  constexpr index_t kMaxExtent = index_t{1} << 32;
  constexpr index_t kMaxSize = index_t{1} << 40;
  if (h.dims.nx <= 0 || h.dims.ny <= 0 || h.dims.nz <= 0 || h.dims.nx > kMaxExtent ||
      h.dims.ny > kMaxExtent || h.dims.nz > kMaxExtent)
    throw CodecError(std::string(who) + ": bad extents");
  if (h.dims.ny > kMaxSize / h.dims.nx ||
      h.dims.nz > kMaxSize / (h.dims.nx * h.dims.ny))
    throw CodecError(std::string(who) + ": bad extents");
  if (!(h.eb > 0.0) || !std::isfinite(h.eb))
    throw CodecError(std::string(who) + ": bad error bound");
  if (h.version >= kSharedHeaderShardVersion) {
    // v7 exists only to record a sharded entropy layout, so a count of 0/1
    // (or an absurd one) is corruption, not a degenerate-but-legal stream.
    const std::uint64_t shards = r.get_varint();
    if (shards < 2 || shards > lossless::kMaxEntropyShards)
      throw CodecError(std::string(who) + ": bad entropy shard count " +
                       std::to_string(shards));
    h.entropy_shards = static_cast<std::uint32_t>(shards);
  }
  h.header_bytes = r.position();
  return h;
}

}  // namespace

StreamHeader peek_header(std::span<const std::byte> stream) {
  ByteReader r(stream);
  return parse_header(r, "peek_header");
}

namespace detail {

void write_header(ByteWriter& w, std::uint32_t codec_magic, Dim3 dims, double eb,
                  std::uint32_t entropy_shards) {
  MRC_REQUIRE(entropy_shards <= lossless::kMaxEntropyShards,
              "entropy shard count out of range");
  // parse_header's own condition: every writer stops here rather than emit
  // a stream every reader rejects (an absolute bound can overflow to inf).
  MRC_REQUIRE(eb > 0.0 && std::isfinite(eb), "error bound must be finite and > 0");
  w.put(kContainerMagic);
  w.put(entropy_shards > 1 ? kContainerVersionSharded : kContainerVersion);
  w.put(codec_magic);
  w.put_varint(static_cast<std::uint64_t>(dims.nx));
  w.put_varint(static_cast<std::uint64_t>(dims.ny));
  w.put_varint(static_cast<std::uint64_t>(dims.nz));
  w.put(eb);
  if (entropy_shards > 1) w.put_varint(entropy_shards);
}

Header read_header(ByteReader& r, std::uint32_t expected_magic, const char* codec_name) {
  const StreamHeader h = parse_header(r, codec_name);
  if (h.codec_magic != expected_magic)
    throw CodecError(std::string(codec_name) + ": stream magic mismatch");
  return Header{h.dims, h.eb, h.entropy_shards};
}

std::uint32_t read_radius(ByteReader& r, const char* codec_name) {
  const std::uint64_t radius = r.get_varint();
  if (radius < 2 || radius > lossless::kMaxQuantRadius)
    throw CodecError(std::string(codec_name) + ": bad radius");
  return static_cast<std::uint32_t>(radius);
}

void write_quant_payload(ByteWriter& w, const PayloadNames& names,
                         std::span<const std::uint32_t> codes, std::uint32_t radius,
                         std::uint32_t shards, int lanes,
                         std::span<const float> outliers) {
  static obs::Counter& ns_ent =
      obs::Registry::global().counter("mrc.codec.entropy.encode_ns");
  static obs::Counter& ns_ll =
      obs::Registry::global().counter("mrc.codec.lossless.encode_ns");
  {
    OBS_SPAN(names.entropy, &ns_ent);
    w.put_blob(lossless::encode_quant_codes_sharded(codes, radius, shards, lanes));
  }
  OBS_SPAN(names.lossless, &ns_ll);
  w.put_blob(lossless::lzss_compress(std::as_bytes(outliers)));
}

QuantPayload::QuantPayload(ByteReader& r)
    : code_blob(r.get_blob()), outlier_blob(r.get_blob()) {}

void QuantPayload::decode(const PayloadNames& names, std::uint32_t radius,
                          std::uint64_t count, AlignedVec<std::uint32_t>& codes,
                          AlignedVec<float>& outliers) const {
  static obs::Counter& ns_ent =
      obs::Registry::global().counter("mrc.codec.entropy.decode_ns");
  static obs::Counter& ns_ll =
      obs::Registry::global().counter("mrc.codec.lossless.decode_ns");
  {
    OBS_SPAN(names.entropy, &ns_ent);
    lossless::decode_quant_codes_into(code_blob, radius, codes, count);
  }
  OBS_SPAN(names.lossless, &ns_ll);
  const Bytes raw = lossless::lzss_decompress(outlier_blob);
  if (raw.size() % sizeof(float) != 0)
    throw CodecError(std::string(names.codec) + ": bad outlier blob");
  outliers.resize(raw.size() / sizeof(float));
  if (!raw.empty())  // memcpy from an empty vector's null data() is UB
    std::memcpy(outliers.data(), raw.data(), raw.size());
}

}  // namespace detail

}  // namespace mrc
