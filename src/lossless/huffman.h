#pragma once

// Canonical Huffman coding over a bounded symbol alphabet.
//
// The codebook is reusable symbol-at-a-time so callers (the quantization-code
// codec) can interleave Huffman codes with raw extra bits in one bit stream,
// the way SZ-family compressors interleave run lengths.
//
// Codes are MSB-first canonical codes (the format is frozen), but both
// directions run word-at-a-time: encode() writes a precomputed bit-reversed
// (code, length) pair with one write_bits() call, and decode() indexes a
// (1 << kDecodeTableBits)-entry lookup table with a peeked window, chaining
// to the canonical first_code/first_index scan only for longer codes.

#include <cstdint>
#include <span>
#include <vector>

#include "lossless/bitstream.h"

namespace mrc::lossless {

namespace detail {

/// Elias-gamma coding for small positive integers (symbol deltas in the
/// codebook header). Exposed for boundary tests; v >= 1, any u64.
void gamma_encode(BitWriter& bw, std::uint64_t v);
[[nodiscard]] std::uint64_t gamma_decode(BitReader& br);

}  // namespace detail

class HuffmanCodebook {
 public:
  /// Direct-lookup decode table width: codes at most this long decode with
  /// one peek + one table load. Longer codes (rare by construction — the
  /// table covers the high-frequency symbols) fall back to the canonical
  /// per-length scan.
  static constexpr int kDecodeTableBits = 12;

  /// Width of a serialized codebook's alphabet-size and used-symbol fields:
  /// serialize() takes alphabets below 2^kAlphabetBits only.
  static constexpr int kAlphabetBits = 24;

  /// Builds length-limited (<= 56 bits) canonical codes from frequencies.
  /// Symbols with zero frequency get no code.
  static HuffmanCodebook from_frequencies(std::span<const std::uint64_t> freqs);

  /// Writes the code-length table (only used symbols) to the stream.
  /// Throws ContractError for an alphabet of 2^kAlphabetBits or more.
  void serialize(BitWriter& bw) const;

  /// Reads a code-length table produced by serialize().
  static HuffmanCodebook deserialize(BitReader& br);

  void encode(BitWriter& bw, std::uint32_t symbol) const {
    MRC_REQUIRE(symbol < lengths_.size() && lengths_[symbol] > 0, "symbol has no code");
    bw.write_bits(enc_bits_[symbol], lengths_[symbol]);
  }

  [[nodiscard]] std::uint32_t decode(BitReader& br) const {
    const std::uint64_t w = br.peek(table_bits_);
    const std::uint32_t e = table_[w & table_mask_];  // never empty: see build_canonical
    if (e != 0) {
      br.consume(static_cast<int>(e & 63u));
      return e >> 6;
    }
    // Rare: a code longer than the table (or an invalid stream) — re-peek
    // with the full window so the per-length scan sees up to 56 bits.
    return decode_long(br, br.peek());
  }

  [[nodiscard]] std::size_t alphabet_size() const { return lengths_.size(); }
  [[nodiscard]] int code_length(std::uint32_t symbol) const { return lengths_[symbol]; }

 private:
  void build_canonical();
  [[nodiscard]] std::uint32_t decode_long(BitReader& br, std::uint64_t window) const;

  std::vector<std::uint8_t> lengths_;   // per-symbol code length (0 == unused)
  std::vector<std::uint64_t> codes_;    // canonical code, MSB-first semantics
  std::vector<std::uint64_t> enc_bits_; // codes_ bit-reversed for LSB-first emission
  // Direct decode table: entry = (symbol << 6) | length for codes no longer
  // than table_bits_; 0 = fall back to the per-length scan below.
  std::vector<std::uint32_t> table_;
  std::uint64_t table_mask_ = 0;
  int table_bits_ = 0;
  // Canonical decoding state: for each length, the first code and the index
  // of its first symbol in the length-sorted symbol list.
  std::vector<std::uint64_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> sorted_symbols_;
  int max_length_ = 0;
};

/// Convenience one-shot helpers (tests, small metadata streams).
Bytes huffman_encode(std::span<const std::uint32_t> symbols, std::uint32_t alphabet_size);
std::vector<std::uint32_t> huffman_decode(std::span<const std::byte> in);

}  // namespace mrc::lossless
