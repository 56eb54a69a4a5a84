#include "lossless/huffman.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace mrc::lossless {

namespace detail {

void gamma_encode(BitWriter& bw, std::uint64_t v) {
  MRC_REQUIRE(v >= 1, "gamma code requires v >= 1");
  // n = floor(log2(v)) via bit_width — the naive `v >> (n + 1)` scan hits a
  // 64-bit shift (UB) for v >= 2^63.
  const int n = std::bit_width(v) - 1;
  bw.write_bits(0, n);
  bw.write_bit(1);
  bw.write_bits(v & ((std::uint64_t{1} << n) - 1), n);
}

std::uint64_t gamma_decode(BitReader& br) {
  int n = 0;
  while (br.read_bit() == 0) {
    ++n;
    if (n > 63) throw CodecError("gamma code too long");
  }
  return (std::uint64_t{1} << n) | br.read_bits(n);
}

}  // namespace detail

namespace {

using detail::gamma_decode;
using detail::gamma_encode;

/// Reverses the low `n` bits of `v` (MSB-first code -> LSB-first emission).
std::uint64_t bit_reverse(std::uint64_t v, int n) {
  std::uint64_t r = 0;
  for (int i = 0; i < n; ++i) r |= ((v >> i) & 1u) << (n - 1 - i);
  return r;
}

// Computes code lengths with the two-queue Huffman construction.
// Returns max length; lengths[sym] == 0 for unused symbols.
int build_lengths(std::span<const std::uint64_t> freqs, std::vector<std::uint8_t>& lengths) {
  struct Node {
    std::uint64_t freq;
    int left;   // -1 for leaf
    int right;
    std::uint32_t symbol;
  };
  std::vector<std::uint32_t> used;
  for (std::uint32_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0) used.push_back(s);

  lengths.assign(freqs.size(), 0);
  if (used.empty()) return 0;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return 1;
  }

  std::sort(used.begin(), used.end(),
            [&](std::uint32_t a, std::uint32_t b) { return freqs[a] < freqs[b]; });

  std::vector<Node> nodes;
  nodes.reserve(used.size() * 2);
  for (auto s : used) nodes.push_back({freqs[s], -1, -1, s});

  // Two queues: leaves (already sorted) and internal nodes (produced in
  // non-decreasing order).
  std::vector<int> internal;
  std::size_t li = 0, ii = 0;
  auto pop_min = [&]() -> int {
    const bool leaf_ok = li < used.size();
    const bool int_ok = ii < internal.size();
    if (leaf_ok && (!int_ok || nodes[li].freq <= nodes[internal[ii]].freq))
      return static_cast<int>(li++);
    MRC_REQUIRE(int_ok, "huffman queue underflow");
    return internal[ii++];
  };

  const std::size_t n_leaves = used.size();
  while ((n_leaves - li) + (internal.size() - ii) > 1) {
    const int a = pop_min();
    const int b = pop_min();
    nodes.push_back({nodes[a].freq + nodes[b].freq, a, b, 0});
    internal.push_back(static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first depth assignment (iterative to bound stack usage).
  const int root = internal.empty() ? 0 : internal.back();
  std::vector<std::pair<int, int>> stack{{root, 0}};
  int max_len = 0;
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[idx];
    if (nd.left < 0) {
      const int len = std::max(depth, 1);
      lengths[nd.symbol] = static_cast<std::uint8_t>(len);
      max_len = std::max(max_len, len);
    } else {
      stack.emplace_back(nd.left, depth + 1);
      stack.emplace_back(nd.right, depth + 1);
    }
  }
  return max_len;
}

}  // namespace

HuffmanCodebook HuffmanCodebook::from_frequencies(std::span<const std::uint64_t> freqs) {
  HuffmanCodebook cb;
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  // Length-limit by frequency scaling: rarely triggers, keeps codes <= 56
  // bits so they fit comfortably in a u64 during canonical decoding.
  for (;;) {
    const int max_len = build_lengths(f, cb.lengths_);
    if (max_len <= 56) break;
    for (auto& v : f)
      if (v > 0) v = (v >> 1) | 1;
  }
  cb.build_canonical();
  return cb;
}

void HuffmanCodebook::build_canonical() {
  sorted_symbols_.clear();
  for (std::uint32_t s = 0; s < lengths_.size(); ++s)
    if (lengths_[s] > 0) sorted_symbols_.push_back(s);
  std::stable_sort(sorted_symbols_.begin(), sorted_symbols_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lengths_[a] != lengths_[b] ? lengths_[a] < lengths_[b] : a < b;
                   });

  max_length_ = 0;
  for (auto s : sorted_symbols_) max_length_ = std::max<int>(max_length_, lengths_[s]);

  codes_.assign(lengths_.size(), 0);
  enc_bits_.assign(lengths_.size(), 0);
  first_code_.assign(static_cast<std::size_t>(max_length_) + 2, 0);
  first_index_.assign(static_cast<std::size_t>(max_length_) + 2, 0);

  std::uint64_t code = 0;
  int prev_len = 0;
  std::vector<bool> seen(static_cast<std::size_t>(max_length_) + 2, false);
  for (std::uint32_t i = 0; i < sorted_symbols_.size(); ++i) {
    const auto sym = sorted_symbols_[i];
    const int len = lengths_[sym];
    code <<= (len - prev_len);
    if (!seen[static_cast<std::size_t>(len)]) {
      first_code_[static_cast<std::size_t>(len)] = code;
      first_index_[static_cast<std::size_t>(len)] = i;
      seen[static_cast<std::size_t>(len)] = true;
    }
    codes_[sym] = code;
    enc_bits_[sym] = bit_reverse(code, len);
    ++code;
    prev_len = len;
  }
  // For lengths with no symbols, make ranges empty but monotone so decode's
  // range check stays simple.
  std::uint32_t next_index = static_cast<std::uint32_t>(sorted_symbols_.size());
  for (int len = max_length_; len >= 1; --len) {
    if (!seen[static_cast<std::size_t>(len)]) {
      first_index_[static_cast<std::size_t>(len)] = next_index;
      first_code_[static_cast<std::size_t>(len)] = ~std::uint64_t{0} >> (64 - len);
    } else {
      next_index = first_index_[static_cast<std::size_t>(len)];
    }
  }
  first_index_[static_cast<std::size_t>(max_length_) + 1] =
      static_cast<std::uint32_t>(sorted_symbols_.size());

  // Direct decode table over the first table_bits_ stream bits. A code of
  // length L <= table_bits_ owns every entry whose low L bits are its
  // bit-reversed pattern; the 2^(table_bits_ - L) fill patterns enumerate the
  // bits of whatever follows it in the stream.
  table_bits_ = std::min(kDecodeTableBits, max_length_);
  if (sorted_symbols_.empty()) {
    // Keep one always-miss entry so decode() needs no emptiness branch.
    table_.assign(1, 0);
    table_mask_ = 0;
    return;
  }
  table_.assign(std::size_t{1} << table_bits_, 0);
  table_mask_ = table_.size() - 1;
  for (auto sym : sorted_symbols_) {
    const int len = lengths_[sym];
    if (len > table_bits_) continue;
    const std::uint64_t base = enc_bits_[sym];
    const std::uint32_t entry = (sym << 6) | static_cast<std::uint32_t>(len);
    for (std::uint64_t fill = base; fill < table_.size();
         fill += std::uint64_t{1} << len)
      table_[static_cast<std::size_t>(fill)] = entry;
  }
}

std::uint32_t HuffmanCodebook::decode_long(BitReader& br, std::uint64_t window) const {
  // Codes longer than the table (or an invalid stream): canonical scan over
  // lengths, rebuilding the MSB-first code from the LSB-first window.
  std::uint64_t code = 0;
  for (int len = 1; len <= max_length_; ++len) {
    code = (code << 1) | ((window >> (len - 1)) & 1u);
    if (len <= table_bits_) continue;  // table already proved no match here
    const auto l = static_cast<std::size_t>(len);
    const std::uint32_t count = first_index_[l + 1] - first_index_[l];
    if (count > 0 && code >= first_code_[l] && code < first_code_[l] + count) {
      br.consume(len);
      return sorted_symbols_[first_index_[l] + static_cast<std::uint32_t>(code - first_code_[l])];
    }
  }
  throw CodecError("invalid huffman code");
}

void HuffmanCodebook::serialize(BitWriter& bw) const {
  MRC_REQUIRE(lengths_.size() < (std::size_t{1} << kAlphabetBits),
              "huffman alphabet too large for the codebook header");
  bw.write_bits(lengths_.size(), kAlphabetBits);
  bw.write_bits(sorted_symbols_.size(), kAlphabetBits);
  // Symbols in ascending order with gamma-coded deltas + 6-bit lengths.
  std::vector<std::uint32_t> asc;
  for (std::uint32_t s = 0; s < lengths_.size(); ++s)
    if (lengths_[s] > 0) asc.push_back(s);
  std::uint32_t prev = 0;
  for (auto s : asc) {
    gamma_encode(bw, static_cast<std::uint64_t>(s) - prev + 1);
    bw.write_bits(lengths_[s], 6);
    prev = s;
  }
}

HuffmanCodebook HuffmanCodebook::deserialize(BitReader& br) {
  HuffmanCodebook cb;
  const auto alphabet = static_cast<std::size_t>(br.read_bits(kAlphabetBits));
  const auto n_used = static_cast<std::size_t>(br.read_bits(kAlphabetBits));
  cb.lengths_.assign(alphabet, 0);
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < n_used; ++i) {
    const auto delta = gamma_decode(br);
    const std::uint64_t sym = prev + delta - 1;
    if (sym >= alphabet) throw CodecError("huffman symbol out of range");
    const auto len = static_cast<std::uint8_t>(br.read_bits(6));
    if (len == 0 || len > 56) throw CodecError("huffman length out of range");
    cb.lengths_[static_cast<std::size_t>(sym)] = len;
    prev = static_cast<std::uint32_t>(sym);
  }
  cb.build_canonical();
  return cb;
}

Bytes huffman_encode(std::span<const std::uint32_t> symbols, std::uint32_t alphabet_size) {
  std::vector<std::uint64_t> freqs(alphabet_size, 0);
  for (auto s : symbols) {
    MRC_REQUIRE(s < alphabet_size, "symbol outside alphabet");
    ++freqs[s];
  }
  auto cb = HuffmanCodebook::from_frequencies(freqs);
  BitWriter bw;
  bw.write_bits(symbols.size(), 48);
  cb.serialize(bw);
  for (auto s : symbols) cb.encode(bw, s);
  return bw.take();
}

std::vector<std::uint32_t> huffman_decode(std::span<const std::byte> in) {
  BitReader br(in);
  const auto n = static_cast<std::size_t>(br.read_bits(48));
  if (n > (std::size_t{1} << 40)) throw CodecError("huffman: implausible count");
  auto cb = HuffmanCodebook::deserialize(br);
  std::vector<std::uint32_t> out;
  // A symbol costs at least one bit, so a hostile count field can never
  // justify reserving more than the payload could hold.
  out.reserve(std::min<std::size_t>(n, static_cast<std::size_t>(br.bits_remaining())));
  for (std::size_t i = 0; i < n; ++i) out.push_back(cb.decode(br));
  return out;
}

}  // namespace mrc::lossless
