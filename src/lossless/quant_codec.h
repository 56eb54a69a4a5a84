#pragma once

// Entropy codec for error-bounded quantization codes.
//
// SZ-family compressors follow quantization with Huffman + a dictionary
// stage (zstd); the dictionary stage is what pushes rates below one bit per
// value on smooth data, where almost every residual lands in the zero bin.
// We reach the same sub-bit regime directly: runs of the zero bin are
// re-tokenized into run-length symbols (deflate-style logarithmic buckets
// with raw extra bits), then the whole token stream is Huffman coded.
//
// Code conventions (shared with all compressors in this library):
//   code == 0         : outlier escape — the exact value is stored separately
//   code == radius    : zero residual
//   code in [1, 2*radius] : residual bin (code - radius)
//
// Two wire layouts share these token semantics:
//
//   * Monolithic (frozen): 48-bit count, serialized codebook, one token
//     stream. Every v6-and-older stream uses it and its bytes must never
//     change (tests/test_frozen_format.cpp).
//   * Sharded (opt-in, container v7): the code array is split into W
//     independently decodable chunks that share one codebook, so one large
//     brick's decode can fan out across the exec pool instead of
//     serializing on a single bitstream. Layout:
//       48-bit marker 0xFFFF'FFFF'FFFF   (monolithic counts are capped at
//                                         2^40, so the marker never collides)
//       u8   shard-layout version (1)
//       48-bit total symbol count
//       16-bit shard count W
//       serialized shared codebook
//       W x (48-bit byte offset, 48-bit byte length, 48-bit symbol count)
//       zero-pad to a byte boundary, then the W chunks back to back
//     Each chunk tokenizes its own slice (zero runs split at shard
//     boundaries) and is byte-aligned. The shard table is fully validated —
//     contiguous offsets covering the payload exactly, counts >= 1 summing
//     to the total — before any output allocation.

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/bytes.h"

namespace mrc::exec {
class ThreadPool;
}

namespace mrc::lossless {

/// Widest quantization radius a code stream takes: the entropy alphabet
/// (2*radius + 1 codes plus the run buckets) must fit a u32.
inline constexpr std::uint32_t kMaxQuantRadius = std::uint32_t{1} << 30;

/// Hard cap on shards per entropy stream: enough to feed any plausible pool
/// from one brick while keeping the shard table trivially small; also the
/// bound the container-header and shard-table validators enforce.
inline constexpr std::uint32_t kMaxEntropyShards = 4096;

/// Fewest symbols worth an independent shard — below this the per-shard
/// Huffman flush + table entry costs more than the parallelism pays. The
/// sharded encoder clamps the requested shard count by it.
inline constexpr std::uint64_t kMinShardSymbols = 4096;

/// The shard count actually used for an n-symbol stream when `requested`
/// shards are asked for: clamped to kMaxEntropyShards and to one shard per
/// kMinShardSymbols, floored at 1. Writers record this (not the raw request)
/// in v7 container headers so header and stream layout always agree.
[[nodiscard]] std::uint32_t negotiate_entropy_shards(std::uint64_t n,
                                                     std::uint32_t requested);

/// Encodes `codes` (each in [0, 2*radius]) in the frozen monolithic layout.
[[nodiscard]] Bytes encode_quant_codes(std::span<const std::uint32_t> codes,
                                       std::uint32_t radius);

/// Encodes in the sharded layout with (up to) `shards` chunks. The count is
/// negotiated down — clamped to kMaxEntropyShards and to one shard per
/// kMinShardSymbols symbols — and when it collapses to 1 the frozen
/// monolithic layout is emitted instead, so small inputs never pay the
/// shard-table overhead and a shards<=1 request is exactly
/// encode_quant_codes(). Output bytes depend only on (codes, radius,
/// shards), never on thread counts.
[[nodiscard]] Bytes encode_quant_codes_sharded(std::span<const std::uint32_t> codes,
                                               std::uint32_t radius,
                                               std::uint32_t shards);

/// True iff `in` begins with the sharded-layout marker.
[[nodiscard]] bool is_sharded_quant_stream(std::span<const std::byte> in);

/// Shard count a stream was written with: 1 for the monolithic layout,
/// the recorded W for a sharded stream (validated to [2, kMaxEntropyShards]).
[[nodiscard]] std::uint32_t quant_stream_shards(std::span<const std::byte> in);

/// Decodes a stream produced by either encoder. Convenience/test API:
/// the output grows to whatever the stream encodes, and run-length tokens
/// legitimately expand a few bytes into millions of zero bins (that is the
/// sub-bit regime working as designed — bounded only by the 2^40 count cap).
/// Production decode paths that know the expected geometry must use
/// decode_quant_codes_into, which rejects any count the caller did not ask
/// for before sizing anything.
[[nodiscard]] std::vector<std::uint32_t> decode_quant_codes(std::span<const std::byte> in,
                                                            std::uint32_t radius);

/// Decodes into a caller-provided reusable buffer (the allocation-free hot
/// path: callers that know the expected symbol count — e.g. the grid size —
/// pass it, and `out` is resized to exactly that). The stream's recorded
/// count is checked against `expected_count` *before* `out` is sized
/// (validate-before-allocate: a corrupt stream whose count disagrees with
/// the caller's geometry throws without any sizing; for a sharded stream
/// the whole shard table is validated first too). Throws CodecError on any
/// mismatch. Sharded streams fan their chunks out through
/// exec::parallel_for (serially when the calling thread is already an exec
/// pool lane); decoded bytes are identical either way.
void decode_quant_codes_into(std::span<const std::byte> in, std::uint32_t radius,
                             AlignedVec<std::uint32_t>& out,
                             std::uint64_t expected_count);

/// Same, but sharded streams decode on `pool` (benches/tests that want an
/// explicit width; monolithic streams ignore it).
void decode_quant_codes_into(std::span<const std::byte> in, std::uint32_t radius,
                             AlignedVec<std::uint32_t>& out,
                             std::uint64_t expected_count, exec::ThreadPool& pool);

}  // namespace mrc::lossless
