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
//
// A monolithic stream of kMinSliceSymbols symbols or more can be encoded on
// several exec-pool lanes with the same bytes. Its even slice bounds move
// forward past any zero run they would split, so each slice tokenizes
// exactly as the whole array does there. Each lane scans one slice, then
// emits its tokens into its own bit buffer, and the buffers are spliced at
// prefix-summed bit offsets. The sharded encoder runs the same per-slice
// scan and emit at its even shard bounds. Decoding a monolithic stream
// stays serial.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/bytes.h"
#include "lossless/huffman.h"

namespace mrc::lossless {

/// Run-length symbols after the 2*radius + 1 codes of every alphabet:
/// bucket b stands for a zero-bin run in [2^b, 2^{b+1}).
inline constexpr int kRunBuckets = 48;

/// Widest quantization radius a code stream takes: its alphabet,
/// 2*radius + 1 codes plus the kRunBuckets run symbols, must stay below
/// 2^24, the width of the codebook's alphabet field.
inline constexpr std::uint32_t kMaxQuantRadius =
    ((std::uint32_t{1} << HuffmanCodebook::kAlphabetBits) - 2 - kRunBuckets) / 2;
static_assert(kMaxQuantRadius == 8'388'583);
static_assert(2 * std::uint64_t{kMaxQuantRadius} + 1 + kRunBuckets <
              (std::uint64_t{1} << HuffmanCodebook::kAlphabetBits));

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

/// Symbols below which a monolithic encode stays one slice on one lane. On
/// mini-Nyx interp codes (4 vCPUs), four slices took 0.53x the time of one
/// at 162 Ki symbols, 0.67x at 81 Ki, 0.82x at 40 Ki and 1.1x at 20 Ki.
inline constexpr std::size_t kMinSliceSymbols = std::size_t{64} << 10;

/// Encodes `codes` (each in [0, 2*radius]) in the frozen monolithic layout,
/// on up to `lanes` exec-pool lanes (0 = hardware; one lane on a pool lane
/// or below kMinSliceSymbols symbols). The bytes do not depend on `lanes`.
[[nodiscard]] Bytes encode_quant_codes(std::span<const std::uint32_t> codes,
                                       std::uint32_t radius, int lanes = 1);

/// Encodes in the sharded layout with (up to) `shards` chunks. The count is
/// negotiated down — clamped to kMaxEntropyShards and to one shard per
/// kMinShardSymbols symbols — and when it collapses to 1 the frozen
/// monolithic layout is emitted instead, so small inputs never pay the
/// shard-table overhead and a shards<=1 request is exactly
/// encode_quant_codes(codes, radius, lanes). The shards scan and emit on up
/// to `lanes` exec-pool lanes (0 = hardware). Output bytes depend only on
/// (codes, radius, shards), never on thread counts.
[[nodiscard]] Bytes encode_quant_codes_sharded(std::span<const std::uint32_t> codes,
                                               std::uint32_t radius,
                                               std::uint32_t shards, int lanes = 1);

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
/// exec::parallel_for on up to `lanes` lanes (0 = hardware; serially when
/// the calling thread is already an exec pool lane); monolithic streams
/// decode on the caller. Decoded bytes are identical either way.
void decode_quant_codes_into(std::span<const std::byte> in, std::uint32_t radius,
                             AlignedVec<std::uint32_t>& out,
                             std::uint64_t expected_count, int lanes = 0);

}  // namespace mrc::lossless
