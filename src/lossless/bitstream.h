#pragma once

// Bit-granular I/O used by the entropy coders and the ZFP-class codec.
// Bits are packed LSB-first within each byte; multi-bit writes emit the
// least-significant bit of the value first, and reads mirror that order.
//
// Both ends operate a word at a time: the writer gathers bits in a 64-bit
// accumulator and appends whole little-endian words to the buffer, the
// reader serves read_bits / peek from an unaligned 64-bit load over the
// input. The byte stream produced/consumed is identical to the historical
// bit-at-a-time implementation — the format is frozen (see the golden-bytes
// tests in tests/test_frozen_format.cpp).

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/require.h"

namespace mrc::lossless {

namespace detail {

/// Low-n-bit mask; n in [0, 64].
[[nodiscard]] constexpr std::uint64_t low_mask(int n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// The 8 bytes at p as a little-endian word.
[[nodiscard]] inline std::uint64_t load_le64(const std::byte* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
#else
  std::uint64_t w = 0;
  for (int i = 0; i < 8; ++i)
    w |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  return w;
#endif
}

}  // namespace detail

class BitWriter {
 public:
  BitWriter() = default;

  void write_bit(std::uint32_t bit) { write_bits(bit & 1u, 1); }

  /// Writes the low `n` bits of `v`, LSB first. n in [0, 64].
  void write_bits(std::uint64_t v, int n) {
    if (n <= 0) return;
    if (flushed_) unflush();
    v &= detail::low_mask(n);
    acc_ |= v << nacc_;
    const int total = nacc_ + n;
    if (total >= 64) {
      append_word(acc_);
      const int used = 64 - nacc_;
      acc_ = used >= 64 ? 0 : v >> used;
      nacc_ = total - 64;
    } else {
      nacc_ = total;
    }
    bit_count_ += static_cast<std::uint64_t>(n);
  }

  /// Appends the first `nbits` bits of another LSB-first stream (such as a
  /// second writer's take()), exactly as if they had been written here one
  /// by one. LSB-first packing makes this a shift-or per 64-bit word, which
  /// is how separately encoded slices of one stream are spliced.
  void append_bits(std::span<const std::byte> bits, std::uint64_t nbits) {
    MRC_REQUIRE(nbits <= static_cast<std::uint64_t>(bits.size()) * 8,
                "append_bits: fewer bytes than bits");
    if (flushed_) unflush();
    const auto words = static_cast<std::size_t>(nbits / 64);
    const std::byte* p = bits.data();
    if (words > 0) {
      // write_bits(w, 64) per word, with the buffer grown once.
      const std::size_t s = out_.size();
      out_.resize(s + 8 * words);
      std::byte* dst = out_.data() + s;
      for (std::size_t i = 0; i < words; ++i, p += 8, dst += 8) {
        const std::uint64_t w = detail::load_le64(p);
        store_le64(dst, acc_ | (w << nacc_));
        acc_ = nacc_ == 0 ? 0 : w >> (64 - nacc_);
      }
      bit_count_ += 64 * static_cast<std::uint64_t>(words);
      nbits -= 64 * static_cast<std::uint64_t>(words);
    }
    std::uint64_t tail = 0;
    for (std::uint64_t k = 0; 8 * k < nbits; ++k)
      tail |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[k])) << (8 * k);
    write_bits(tail, static_cast<int>(nbits));
  }

  /// Grows the buffer up front (hint only; the stream is unaffected).
  void reserve_bytes(std::size_t n) { out_.reserve(n); }

  /// Number of bits written so far.
  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }

  /// The stream so far, padded with zero bits to a byte boundary. Writing
  /// after bytes() continues the stream at bit_count() as if the padding had
  /// never happened.
  [[nodiscard]] const Bytes& bytes() {
    flush_tail();
    return out_;
  }

  [[nodiscard]] Bytes take() {
    flush_tail();
    Bytes b = std::move(out_);
    *this = BitWriter();
    return b;
  }

 private:
  void append_word(std::uint64_t w) {
    const std::size_t s = out_.size();
    out_.resize(s + 8);
    store_le64(out_.data() + s, w);
  }

  static void store_le64(std::byte* p, std::uint64_t w) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((w >> (8 * i)) & 0xff);
  }

  /// Appends the pending (< 64) accumulator bits, zero-padded to a byte.
  void flush_tail() {
    if (flushed_) return;
    for (int done = 0; done < nacc_; done += 8)
      out_.push_back(static_cast<std::byte>((acc_ >> done) & 0xff));
    flushed_ = true;
  }

  /// Reloads the partial final byte into the accumulator after a flush so
  /// interleaved bytes()/write_bits() keeps the historical semantics.
  void unflush() {
    const int partial = static_cast<int>(bit_count_ & 7);
    if (partial != 0) {
      acc_ = static_cast<std::uint8_t>(out_.back());
      out_.pop_back();
    } else {
      acc_ = 0;
    }
    nacc_ = partial;
    flushed_ = false;
  }

  Bytes out_;
  std::uint64_t acc_ = 0;      // pending bits, LSB = oldest
  int nacc_ = 0;               // pending bit count, in [0, 64)
  std::uint64_t bit_count_ = 0;
  bool flushed_ = false;
};

/// Reads the stream through a cached 64-bit window: `acc_` always holds the
/// next `navail_` unconsumed bits (LSB = next bit), refilled with one
/// unaligned load per ~7 consumed bytes, so peek() is a register read and
/// read_bits()/consume() are shifts.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> in)
      : in_(in), nbits_(static_cast<std::uint64_t>(in.size()) * 8) {
    refill();
  }

  [[nodiscard]] std::uint32_t read_bit() {
    if (navail_ == 0) {
      refill();
      if (navail_ == 0) throw CodecError("bit stream truncated");
    }
    const auto bit = static_cast<std::uint32_t>(acc_ & 1u);
    acc_ >>= 1;
    --navail_;
    return bit;
  }

  [[nodiscard]] std::uint64_t read_bits(int n) {
    if (n <= 0) return 0;
    if (navail_ < n) {
      refill();
      if (navail_ < n) return read_bits_split(n);
    }
    const std::uint64_t v = acc_ & detail::low_mask(n);
    acc_ = n >= 64 ? 0 : acc_ >> n;
    navail_ -= n;
    return v;
  }

  /// The next up-to-64 bits without consuming them, zero-padded past the end
  /// of the stream. At least min(min_bits, bits_remaining()) low bits are
  /// real stream bits; min_bits must be <= 56 (all refill() guarantees),
  /// and the default covers any canonical Huffman code (<= 56 bits). Asking
  /// for fewer valid bits refills less often — the Huffman fast path peeks
  /// only its table width.
  [[nodiscard]] std::uint64_t peek(int min_bits = 56) {
    if (navail_ < min_bits) refill();
    return acc_;
  }

  /// Advances past `n` (<= 56) bits previously inspected with peek().
  void consume(int n) {
    if (navail_ < n) {
      refill();
      if (navail_ < n) throw CodecError("bit stream truncated");
    }
    acc_ >>= n;
    navail_ -= n;
  }

  [[nodiscard]] std::uint64_t bit_position() const {
    return static_cast<std::uint64_t>(byte_pos_) * 8 - static_cast<std::uint64_t>(navail_);
  }
  [[nodiscard]] std::uint64_t bits_remaining() const { return nbits_ - bit_position(); }

 private:
  /// Tops the window up to >= 56 bits (or to end of input).
  void refill() {
    if (byte_pos_ + 8 <= in_.size()) {
      // One unaligned load; advance only past the bytes that fit, so the
      // overlap is re-read by the next refill.
      acc_ |= detail::load_le64(in_.data() + byte_pos_) << navail_;
      byte_pos_ += static_cast<std::size_t>((63 - navail_) >> 3);
      navail_ |= 56;
      return;
    }
    while (navail_ <= 56 && byte_pos_ < in_.size()) {
      acc_ |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[byte_pos_]))
              << navail_;
      navail_ += 8;
      ++byte_pos_;
    }
  }

  /// Cold path: a multi-word read that straddles the refill boundary near
  /// the end of input (navail_ < n <= 64 after a refill).
  std::uint64_t read_bits_split(int n) {
    if (bits_remaining() < static_cast<std::uint64_t>(n))
      throw CodecError("bit stream truncated");
    std::uint64_t v = 0;
    for (int got = 0; got < n;) {
      const int take = std::min(n - got, navail_ == 0 ? 0 : navail_);
      if (take == 0) {
        refill();
        if (navail_ == 0) throw CodecError("bit stream truncated");
        continue;
      }
      v |= (acc_ & detail::low_mask(take)) << got;
      acc_ = take >= 64 ? 0 : acc_ >> take;
      navail_ -= take;
      got += take;
    }
    return v;
  }

  std::span<const std::byte> in_;
  std::uint64_t nbits_ = 0;
  std::uint64_t acc_ = 0;   // next navail_ bits, LSB = oldest
  int navail_ = 0;
  std::size_t byte_pos_ = 0;  // first byte not yet absorbed into acc_
};

}  // namespace mrc::lossless
