#pragma once

// Shared interface for the error-bounded lossy compressors (SZ3-class
// interpolation, SZ2-class Lorenzo/regression, ZFP-class transform, and any
// future backend). All of them:
//   * take an absolute error bound and guarantee max|x - x̂| <= eb,
//   * emit a self-describing byte stream: the versioned container header
//     below (container magic, version, codec id, extents, eb), then the
//     codec payload,
//   * decompress without any side information.
//
// Callers normally do not construct compressors directly: they are built
// through the CodecRegistry ("compressors/registry.h") which maps string
// names and stream magics to factories, and most code should go through the
// top-level facade in "api/mrc_api.h" (api::compress / api::decompress /
// api::compress_adaptive / api::restore). Decode-side codec dispatch is a
// zero-cost header peek (`peek_header`), never exception probing.

#include <memory>
#include <span>
#include <string>

#include "common/aligned.h"
#include "common/bytes.h"
#include "common/dims.h"
#include "grid/field.h"

namespace mrc {

class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Compresses `f` under absolute error bound `abs_eb` (> 0).
  [[nodiscard]] virtual Bytes compress(const FieldF& f, double abs_eb) const = 0;

  /// Reconstructs the field from a stream produced by compress().
  [[nodiscard]] virtual FieldF decompress(std::span<const std::byte> stream) const = 0;
};

/// Compression ratio: original float bytes / compressed bytes.
[[nodiscard]] double compression_ratio(index_t n_values, std::size_t compressed_bytes);

/// Round-trip convenience used everywhere in benches/tests.
struct RoundTrip {
  FieldF reconstructed;
  std::size_t compressed_bytes = 0;
  double ratio = 0.0;
};
[[nodiscard]] RoundTrip round_trip(const Compressor& c, const FieldF& f, double abs_eb);

/// Decoded container header of any mrcomp stream — codec streams, sz3mr
/// level streams, and snapshots all start with the same layout, so one
/// reader identifies any of them without touching the payload:
///   u32     container magic "MRC1"
///   u8      container version
///   u32     codec magic (the registry / stream-kind id)
///   varint  nx, ny, nz
///   f64     absolute error bound
///   varint  entropy shard count (version >= 7 only; v6 and older imply 1)
struct StreamHeader {
  std::uint32_t codec_magic = 0;
  unsigned version = 0;
  Dim3 dims;
  double eb = 0.0;
  /// Entropy-layout minor version: shards the writer split each Huffman
  /// code stream into (1 = the frozen monolithic v6 layout).
  std::uint32_t entropy_shards = 1;
  std::size_t header_bytes = 0;  ///< offset where the payload begins
};

/// Parses and validates the container header. Throws CodecError on anything
/// that is not a well-formed mrcomp stream (wrong magic, unsupported
/// version, truncation, absurd extents, non-finite eb).
[[nodiscard]] StreamHeader peek_header(std::span<const std::byte> stream);

namespace detail {

/// Caps how much per-lane (thread_local) codec scratch survives a call.
/// Brick-sized buffers — the container hot path this scratch exists for —
/// stay well under the cap and are reused across tasks; a monolithic
/// full-field call releases its field-sized buffer instead of pinning it in
/// the thread_local for the rest of the thread's life.
inline constexpr std::size_t kScratchKeepBytes = std::size_t{32} << 20;

template <typename V>
inline void trim_scratch(V& v) {
  if (v.capacity() * sizeof(typename V::value_type) > kScratchKeepBytes) {
    V{}.swap(v);
  }
}

/// Trims a scratch vector on every scope exit — including the CodecError
/// paths, so a failed decode of a huge corrupt stream cannot pin a
/// field-sized buffer in the thread_local either.
template <typename V>
class ScratchGuard {
 public:
  explicit ScratchGuard(V& v) : v_(v) {}
  ~ScratchGuard() { trim_scratch(v_); }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  V& v_;
};

inline constexpr std::uint32_t kContainerMagic = 0x3143'524d;  // "MRC1"
// v7 is the sharded entropy layout (a trailing varint shard count in the
// header, Huffman code streams split into independently decodable chunks);
// it is written *only* when a writer was asked for >1 shard, so every
// default stream stays byte-identical to v6 and the frozen goldens hold.
// v6 adds the progressive residual container (progressive/progressive.h);
// v5 the adaptive multi-resolution container (adaptive/adaptive.h);
// v4 added the LOD pyramid (pyramid/pyramid.h); v3 the tiled container
// (tiled/tiled.h). Older streams still parse — peek_header accepts any
// version up to kContainerVersionMax.
inline constexpr std::uint8_t kContainerVersion = 6;
inline constexpr std::uint8_t kContainerVersionSharded = 7;
inline constexpr std::uint8_t kContainerVersionMax = kContainerVersionSharded;

/// Writes the shared container header (layout above). entropy_shards <= 1
/// emits the frozen v6 header byte-for-byte; > 1 emits a v7 header with the
/// shard count appended.
void write_header(ByteWriter& w, std::uint32_t codec_magic, Dim3 dims, double eb,
                  std::uint32_t entropy_shards = 1);

struct Header {
  Dim3 dims;
  double eb = 0.0;
  std::uint32_t entropy_shards = 1;  ///< 1 unless a v7 header said otherwise
};
/// Reads the container header and checks the codec magic matches.
[[nodiscard]] Header read_header(ByteReader& r, std::uint32_t expected_magic,
                                 const char* codec_name);

/// Reads a quantization radius (varint); throws CodecError
/// "<codec>: bad radius" outside [2, lossless::kMaxQuantRadius].
[[nodiscard]] std::uint32_t read_radius(ByteReader& r, const char* codec_name);

/// How a predict-and-quantize codec names its payload: the prefix of its
/// error messages and the spans its two payload stages record.
struct PayloadNames {
  const char* codec;     ///< e.g. "interp"
  const char* entropy;   ///< e.g. "interp.entropy"
  const char* lossless;  ///< e.g. "interp.lossless"
};

/// The payload interp, quantize and each lorenzo chunk end with: the
/// Huffman code blob (lossless::encode_quant_codes_sharded with `shards`,
/// encoded on up to `lanes` lanes), then an LZSS blob of the raw outlier
/// floats. The two stages add to the mrc.codec.entropy/lossless.encode_ns
/// counters.
void write_quant_payload(ByteWriter& w, const PayloadNames& names,
                         std::span<const std::uint32_t> codes, std::uint32_t radius,
                         std::uint32_t shards, int lanes,
                         std::span<const float> outliers);

/// The reader of write_quant_payload's bytes: the two blobs, located in a
/// stream but not yet decoded, so a caller can find several payloads first
/// and decode them on different lanes.
struct QuantPayload {
  /// Locates the payload at r's position and moves r past it.
  explicit QuantPayload(ByteReader& r);

  /// Decodes exactly `count` codes (the stream's count is checked against it
  /// before `codes` is sized) and the outliers (the blob must hold a whole
  /// number of floats, else "<codec>: bad outlier blob"). The two stages add
  /// to the mrc.codec.entropy/lossless.decode_ns counters.
  void decode(const PayloadNames& names, std::uint32_t radius, std::uint64_t count,
              AlignedVec<std::uint32_t>& codes, AlignedVec<float>& outliers) const;

  std::span<const std::byte> code_blob;
  std::span<const std::byte> outlier_blob;
};

}  // namespace detail

}  // namespace mrc
