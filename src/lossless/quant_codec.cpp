#include "lossless/quant_codec.h"

#include <algorithm>
#include <bit>

#include "exec/thread_pool.h"
#include "lossless/huffman.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mrc::lossless {

namespace {

constexpr std::size_t kMinRun = 6;    // shorter zero runs are cheaper as literals
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 40;

// Sharded-layout framing (documented in quant_codec.h). The marker is the
// all-ones 48-bit word: monolithic streams open with their symbol count,
// which is capped at 2^40, so no legal monolithic stream can start with it.
constexpr std::uint64_t kShardMarker = 0xFFFF'FFFF'FFFFull;
constexpr std::uint64_t kShardLayoutVersion = 1;

int bucket_of(std::uint64_t run) {
  // floor(log2(run)); bit_width avoids the `run >> (b + 1)` scan whose shift
  // count can reach the word size (UB) on huge inputs.
  return std::bit_width(run) - 1;
}

/// A maximal zero-bin run of length >= kMinRun, by position in the code
/// array. The token scan records these so the emit pass can stream literals
/// between them with no per-symbol run detection.
struct ZeroRun {
  std::uint64_t start = 0;
  std::uint64_t len = 0;
};

/// One pass over the codes: validated token frequencies, the long-run list,
/// and the raw extra-bit budget — everything both the codebook build and the
/// emit pass need.
struct TokenScan {
  std::vector<std::uint64_t> freqs;
  std::vector<ZeroRun> runs;
  std::uint64_t extra_bits_total = 0;
};

/// Cold path: re-checks a block the vector validity test flagged, to throw
/// with the standard contract message.
void require_in_alphabet(const std::uint32_t* p, std::size_t count, std::uint32_t limit) {
  for (std::size_t k = 0; k < count; ++k)
    MRC_REQUIRE(p[k] <= limit, "quant code outside alphabet");
}

#if defined(__SSE2__)

/// 16 lanes starting at p: bit j of the result set iff p[j] == zero. Lanes
/// above `limit` (biased unsigned compare) are OR-ed into *bad.
inline std::uint32_t zero_mask16(const std::uint32_t* p, __m128i vzero,
                                 __m128i vlimit_biased, __m128i vbias, __m128i* bad) {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4));
  const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8));
  const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 12));
  __m128i over = _mm_cmpgt_epi32(_mm_xor_si128(a, vbias), vlimit_biased);
  over = _mm_or_si128(over, _mm_cmpgt_epi32(_mm_xor_si128(b, vbias), vlimit_biased));
  over = _mm_or_si128(over, _mm_cmpgt_epi32(_mm_xor_si128(c, vbias), vlimit_biased));
  over = _mm_or_si128(over, _mm_cmpgt_epi32(_mm_xor_si128(d, vbias), vlimit_biased));
  *bad = _mm_or_si128(*bad, over);
  const __m128i lo = _mm_packs_epi32(_mm_cmpeq_epi32(a, vzero), _mm_cmpeq_epi32(b, vzero));
  const __m128i hi = _mm_packs_epi32(_mm_cmpeq_epi32(c, vzero), _mm_cmpeq_epi32(d, vzero));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
}

#endif  // __SSE2__

/// Single fused scan: per-64-symbol block it builds a zero-bin bitmask
/// (SSE2 compare+movemask where available), validates the block against the
/// alphabet, extracts zero runs from the mask word, and histograms the
/// block. Four histogram banks break the store-to-load dependency a run of
/// equal symbols would otherwise serialize on; long runs are subtracted from
/// the zero-bin frequency afterwards, which reproduces the token counts of
/// the original symbol-at-a-time tokenizer exactly.
TokenScan scan_tokens(std::span<const std::uint32_t> codes, std::uint32_t radius) {
  const std::uint32_t zero = radius;
  const std::uint32_t limit = 2 * radius;
  const std::uint32_t alphabet = 2 * radius + 1 + kRunBuckets;
  const std::size_t n = codes.size();

  TokenScan ts;
  // Bank stride: 4 banks for every realistic alphabet; one bank (stride 0)
  // past 2^14 symbols keeps the scratch bounded for absurd radii.
  const bool banked = alphabet <= (1u << 14);
  const std::size_t bs = banked ? alphabet : 0;
  std::vector<std::uint64_t> h((banked ? 4 : 1) * std::size_t{alphabet}, 0);

  std::uint64_t open_start = 0;
  std::uint64_t open_len = 0;
  auto flush_run = [&] {
    if (open_len >= kMinRun) ts.runs.push_back({open_start, open_len});
    open_len = 0;
  };
  // Consumes one mask word (vb valid bits for symbols [base, base+vb)):
  // walks its set-bit segments, keeping a run that touches the word edge
  // open so cross-word runs merge.
  auto feed_word = [&](std::uint64_t m, int vb, std::uint64_t base) {
    if (vb < 64) m &= detail::low_mask(vb);
    int pos = 0;
    for (;;) {
      const std::uint64_t rem = pos >= 64 ? 0 : (m >> pos);
      if (rem == 0) {
        if (pos < vb) flush_run();  // trailing zeros end any open run
        return;
      }
      const int skip = std::countr_zero(rem);
      if (skip > 0) flush_run();
      pos += skip;
      const std::uint64_t inv = ~(m >> pos);
      const int ones = inv == 0 ? 64 - pos : std::countr_zero(inv);
      if (open_len == 0) open_start = base + static_cast<std::uint64_t>(pos);
      open_len += static_cast<std::uint64_t>(ones);
      pos += ones;
      if (pos >= vb) return;  // run reaches the word edge — stays open
    }
  };

  std::size_t i = 0;
#if defined(__SSE2__)
  if (n >= 64) {
    const __m128i vzero = _mm_set1_epi32(static_cast<int>(zero));
    const __m128i vbias = _mm_set1_epi32(static_cast<int>(0x8000'0000u));
    const __m128i vlim = _mm_set1_epi32(static_cast<int>(limit ^ 0x8000'0000u));
    for (; i + 64 <= n; i += 64) {
      const std::uint32_t* p = codes.data() + i;
      __m128i bad = _mm_setzero_si128();
      std::uint64_t m = 0;
      for (int k = 0; k < 4; ++k)
        m |= std::uint64_t{zero_mask16(p + 16 * k, vzero, vlim, vbias, &bad)} << (16 * k);
      if (_mm_movemask_epi8(bad) != 0) require_in_alphabet(p, 64, limit);
      feed_word(m, 64, i);
      for (int k = 0; k < 64; k += 4) {
        ++h[p[k]];
        ++h[bs + p[k + 1]];
        ++h[2 * bs + p[k + 2]];
        ++h[3 * bs + p[k + 3]];
      }
    }
  }
#endif
  {
    std::uint64_t m = 0;
    int vb = 0;
    std::uint64_t base = i;
    for (; i < n; ++i) {
      const std::uint32_t c = codes[i];
      MRC_REQUIRE(c <= limit, "quant code outside alphabet");
      ++h[c];
      m |= std::uint64_t{c == zero} << vb;
      if (++vb == 64) {
        feed_word(m, 64, base);
        m = 0;
        vb = 0;
        base = i + 1;
      }
    }
    if (vb > 0) feed_word(m, vb, base);
  }
  flush_run();

  ts.freqs.assign(alphabet, 0);
  const std::size_t nbanks = banked ? 4 : 1;
  for (std::size_t b = 0; b < nbanks; ++b)
    for (std::size_t s = 0; s < alphabet; ++s) ts.freqs[s] += h[b * bs + s];

  const std::uint32_t run_base = 2 * radius + 1;
  for (const ZeroRun& r : ts.runs) {
    ts.freqs[zero] -= r.len;
    const int b = bucket_of(r.len);
    ++ts.freqs[run_base + static_cast<std::uint32_t>(b)];
    ts.extra_bits_total += static_cast<std::uint64_t>(b);
  }
  return ts;
}

/// Streams the token sequence: tight literal loops between the pre-found
/// long runs (no per-symbol run detection), run symbol + raw extra bits at
/// each run. Byte-identical to the historical symbol-at-a-time emitter.
void emit_tokens(BitWriter& bw, const HuffmanCodebook& cb,
                 std::span<const std::uint32_t> codes, std::uint32_t radius,
                 const std::vector<ZeroRun>& runs) {
  const std::uint32_t run_base = 2 * radius + 1;
  const std::uint32_t* p = codes.data();
  const std::size_t n = codes.size();
  std::size_t i = 0;
  std::size_t r = 0;
  while (i < n) {
    const std::size_t stop = r < runs.size() ? static_cast<std::size_t>(runs[r].start) : n;
    for (; i < stop; ++i) cb.encode(bw, p[i]);
    if (i >= n) break;
    const std::uint64_t run = runs[r].len;
    const int b = bucket_of(run);
    cb.encode(bw, run_base + static_cast<std::uint32_t>(b));
    bw.write_bits(run - (std::uint64_t{1} << b), b);
    i += static_cast<std::size_t>(run);
    ++r;
  }
}

std::size_t stream_reserve_hint(const TokenScan& ts, const HuffmanCodebook& cb,
                                std::uint32_t alphabet) {
  std::uint64_t code_bits_total = 0;
  for (std::uint32_t s = 0; s < alphabet; ++s)
    code_bits_total += ts.freqs[s] * static_cast<std::uint64_t>(cb.code_length(s));
  return static_cast<std::size_t>((code_bits_total + ts.extra_bits_total) / 8 +
                                  4 * alphabet / 8 + 64);
}

/// Even slice bounds: bound[k] = n * k / slices, k in [0, slices].
std::vector<std::size_t> even_bounds(std::size_t n, std::size_t slices) {
  std::vector<std::size_t> bound(slices + 1);
  for (std::size_t k = 0; k <= slices; ++k)
    bound[k] = static_cast<std::size_t>(static_cast<std::uint64_t>(n) * k / slices);
  return bound;
}

/// Even bounds, each moved forward past the zero bins on both of its sides
/// (at most the length of the run it falls in). No zero run then crosses a
/// bound, so each slice tokenizes exactly as the whole array does there.
std::vector<std::size_t> run_aligned_bounds(std::span<const std::uint32_t> codes,
                                            std::uint32_t zero, std::size_t slices) {
  std::vector<std::size_t> bound = even_bounds(codes.size(), slices);
  for (std::size_t k = 1; k < slices; ++k) {
    std::size_t i = std::max(bound[k], bound[k - 1]);
    while (i > 0 && i < codes.size() && codes[i - 1] == zero && codes[i] == zero) ++i;
    bound[k] = i;
  }
  return bound;
}

/// Slices a monolithic encode of n symbols runs as on `lanes` lanes: one
/// below kMinSliceSymbols, else one per lane — but never fewer symbols per
/// slice than the alphabet has entries, since each slice scan histograms
/// the whole alphabet.
std::size_t slice_count(std::size_t n, std::uint32_t alphabet, int lanes) {
  if (lanes <= 1 || n < kMinSliceSymbols) return 1;
  return std::clamp<std::size_t>(n / alphabet, 1, static_cast<std::size_t>(lanes));
}

/// The slices codes[bound[k], bound[k+1]) each token-scanned on its own,
/// and the one codebook of their summed frequencies.
struct SlicedScan {
  std::vector<std::size_t> bound;
  std::vector<TokenScan> scans;
  HuffmanCodebook cb;
};

SlicedScan scan_slices(std::span<const std::uint32_t> codes, std::uint32_t radius,
                       std::vector<std::size_t> bound, int lanes) {
  const std::uint32_t alphabet = 2 * radius + 1 + kRunBuckets;
  SlicedScan sc;
  sc.scans.resize(bound.size() - 1);
  exec::parallel_for(static_cast<index_t>(sc.scans.size()), [&](index_t i) {
    const auto k = static_cast<std::size_t>(i);
    sc.scans[k] = scan_tokens(codes.subspan(bound[k], bound[k + 1] - bound[k]), radius);
  }, lanes);
  sc.bound = std::move(bound);
  if (sc.scans.size() == 1) {
    sc.cb = HuffmanCodebook::from_frequencies(sc.scans[0].freqs);
    return sc;
  }
  std::vector<std::uint64_t> freqs(alphabet, 0);
  for (const TokenScan& t : sc.scans)
    for (std::uint32_t s = 0; s < alphabet; ++s) freqs[s] += t.freqs[s];
  sc.cb = HuffmanCodebook::from_frequencies(freqs);
  return sc;
}

/// One emitted slice: its exact bit length and its bytes.
struct SliceBits {
  std::uint64_t bits = 0;
  Bytes bytes;
};

/// Emits every slice of `sc` into a writer of its own on `lanes` lanes, or
/// slice 0 straight into `*head` when given (its entry stays empty). Only
/// finished buffers land in the result: writers side by side in one array
/// would share cache lines on every write.
std::vector<SliceBits> emit_slices(const SlicedScan& sc, std::span<const std::uint32_t> codes,
                                   std::uint32_t radius, int lanes, BitWriter* head) {
  const std::uint32_t alphabet = 2 * radius + 1 + kRunBuckets;
  std::vector<SliceBits> out(sc.scans.size());
  exec::parallel_for(static_cast<index_t>(out.size()), [&](index_t i) {
    const auto k = static_cast<std::size_t>(i);
    const auto slice = codes.subspan(sc.bound[k], sc.bound[k + 1] - sc.bound[k]);
    if (k == 0 && head != nullptr) {
      emit_tokens(*head, sc.cb, slice, radius, sc.scans[0].runs);
      return;
    }
    BitWriter w;
    w.reserve_bytes(stream_reserve_hint(sc.scans[k], sc.cb, alphabet));
    emit_tokens(w, sc.cb, slice, radius, sc.scans[k].runs);
    out[k].bits = w.bit_count();
    out[k].bytes = w.take();
  }, lanes);
  return out;
}

}  // namespace

Bytes encode_quant_codes(std::span<const std::uint32_t> codes, std::uint32_t radius,
                         int lanes) {
  MRC_REQUIRE(radius <= kMaxQuantRadius, "quant radius out of range");
  const std::uint32_t alphabet = 2 * radius + 1 + kRunBuckets;
  const int width = exec::lanes_here(lanes);
  const std::size_t slices = slice_count(codes.size(), alphabet, width);
  const SlicedScan sc =
      scan_slices(codes, radius, run_aligned_bounds(codes, radius, slices), width);

  BitWriter bw;
  std::size_t hint = 0;
  for (const TokenScan& t : sc.scans) hint += stream_reserve_hint(t, sc.cb, alphabet);
  bw.reserve_bytes(hint);
  bw.write_bits(codes.size(), 48);
  sc.cb.serialize(bw);
  const std::vector<SliceBits> rest = emit_slices(sc, codes, radius, width, &bw);
  for (std::size_t k = 1; k < rest.size(); ++k) bw.append_bits(rest[k].bytes, rest[k].bits);
  return bw.take();
}

std::uint32_t negotiate_entropy_shards(std::uint64_t n, std::uint32_t requested) {
  const std::uint64_t w =
      std::min<std::uint64_t>({requested, kMaxEntropyShards, n / kMinShardSymbols});
  return w <= 1 ? 1u : static_cast<std::uint32_t>(w);
}

Bytes encode_quant_codes_sharded(std::span<const std::uint32_t> codes,
                                 std::uint32_t radius, std::uint32_t shards, int lanes) {
  const std::size_t n = codes.size();
  const std::uint32_t negotiated = negotiate_entropy_shards(n, shards);
  if (negotiated <= 1) return encode_quant_codes(codes, radius, lanes);
  MRC_REQUIRE(radius <= kMaxQuantRadius, "quant radius out of range");
  MRC_REQUIRE(n < kMaxCount, "quant codec: too many symbols for one stream");

  const auto W = static_cast<std::uint32_t>(negotiated);

  // Even split; every shard has >= kMinShardSymbols / 2 symbols by the clamp.
  // Runs are split at shard bounds (each shard tokenizes its slice on its
  // own), and the shared codebook comes from the summed per-shard scans.
  const SlicedScan sc = scan_slices(codes, radius, even_bounds(n, W), lanes);
  const std::vector<SliceBits> chunks = emit_slices(sc, codes, radius, lanes, nullptr);

  BitWriter bw;
  bw.write_bits(kShardMarker, 48);
  bw.write_bits(kShardLayoutVersion, 8);
  bw.write_bits(n, 48);
  bw.write_bits(W, 16);
  sc.cb.serialize(bw);
  std::uint64_t off = 0;
  for (std::uint32_t s = 0; s < W; ++s) {
    bw.write_bits(off, 48);
    bw.write_bits(chunks[s].bytes.size(), 48);
    bw.write_bits(sc.bound[s + 1] - sc.bound[s], 48);
    off += chunks[s].bytes.size();
  }
  Bytes out = bw.take();
  out.reserve(out.size() + static_cast<std::size_t>(off));
  for (const SliceBits& c : chunks) out.insert(out.end(), c.bytes.begin(), c.bytes.end());
  return out;
}

bool is_sharded_quant_stream(std::span<const std::byte> in) {
  if (in.size() < 6) return false;
  for (int k = 0; k < 6; ++k)
    if (in[static_cast<std::size_t>(k)] != std::byte{0xff}) return false;
  return true;
}

namespace {

/// Shared decode loop; Sink provides literal(sym) and run(count, zero).
template <typename Sink>
void decode_stream(BitReader& br, const HuffmanCodebook& cb, std::uint32_t radius,
                   std::size_t n, Sink&& sink) {
  const std::uint32_t run_base = 2 * radius + 1;
  std::size_t produced = 0;
  while (produced < n) {
    const auto sym = cb.decode(br);
    if (sym < run_base) {
      sink.literal(sym);
      ++produced;
    } else {
      const int b = static_cast<int>(sym - run_base);
      if (b >= kRunBuckets) throw CodecError("quant codec: bad run bucket");
      const std::uint64_t run = (std::uint64_t{1} << b) + br.read_bits(b);
      if (run > n - produced) throw CodecError("quant codec: run overflow");
      sink.run(static_cast<std::size_t>(run));
      produced += static_cast<std::size_t>(run);
    }
  }
}

struct SpanSink {
  std::uint32_t* dst;
  std::uint32_t zero;
  void literal(std::uint32_t sym) { *dst++ = sym; }
  void run(std::size_t count) {
    std::fill_n(dst, count, zero);
    dst += count;
  }
};

struct ShardEntry {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  std::uint64_t count = 0;
};

struct ShardedHeader {
  std::uint64_t n = 0;
  HuffmanCodebook cb;
  std::vector<ShardEntry> table;
  std::size_t payload_start = 0;
};

constexpr std::uint64_t kAnyCount = ~std::uint64_t{0};

/// Parses and fully validates a sharded stream's header + shard table.
/// Nothing output-sized is allocated here; a hostile table (overlapping or
/// out-of-range offsets, counts that lie about the total) throws before the
/// caller sizes its buffer. `expected_count` == kAnyCount applies only the
/// 2^40 plausibility cap (the convenience decoder's contract).
ShardedHeader parse_sharded(std::span<const std::byte> in, std::uint64_t expected_count) {
  BitReader br(in);
  if (br.read_bits(48) != kShardMarker)
    throw CodecError("quant codec: not a sharded stream");
  if (br.read_bits(8) != kShardLayoutVersion)
    throw CodecError("quant codec: unknown shard layout version");
  ShardedHeader h;
  h.n = br.read_bits(48);
  if (expected_count == kAnyCount) {
    if (h.n > kMaxCount) throw CodecError("quant codec: implausible count");
  } else if (h.n != expected_count) {
    throw CodecError("quant codec: count mismatch");
  }
  const std::uint64_t w = br.read_bits(16);
  if (w < 2 || w > kMaxEntropyShards || w > h.n)
    throw CodecError("quant codec: bad shard count");
  h.cb = HuffmanCodebook::deserialize(br);

  h.table.resize(static_cast<std::size_t>(w));
  std::uint64_t expected_off = 0;
  std::uint64_t count_sum = 0;
  for (ShardEntry& e : h.table) {
    e.off = br.read_bits(48);
    e.len = br.read_bits(48);
    e.count = br.read_bits(48);
    // Contiguity pins every chunk: offset 0 for the first, previous end for
    // the rest — which rules out overlaps, gaps, and reordering in one check.
    if (e.off != expected_off || e.len == 0 || e.count == 0 || e.count > h.n)
      throw CodecError("quant codec: bad shard table entry");
    expected_off = e.off + e.len;
    count_sum += e.count;  // cannot overflow: counts <= 2^48, w <= 4096
  }
  if (count_sum != h.n)
    throw CodecError("quant codec: shard counts disagree with total");
  h.payload_start = static_cast<std::size_t>((br.bit_position() + 7) / 8);
  if (expected_off != in.size() - h.payload_start)
    throw CodecError("quant codec: shard table does not cover stream");
  return h;
}

/// Decodes every shard into its disjoint slice of dst. Each chunk is an
/// independent BitReader over its validated sub-span, so shards run in any
/// order — or concurrently — and produce the same bytes.
void decode_shards(std::span<const std::byte> in, std::uint32_t radius,
                   std::uint32_t* dst, const ShardedHeader& h, int lanes) {
  const auto shard_count = static_cast<index_t>(h.table.size());
  std::vector<std::uint64_t> first(h.table.size() + 1, 0);
  for (std::size_t s = 0; s < h.table.size(); ++s)
    first[s + 1] = first[s] + h.table[s].count;

  auto decode_one = [&](index_t s) {
    const ShardEntry& e = h.table[static_cast<std::size_t>(s)];
    BitReader br(in.subspan(h.payload_start + static_cast<std::size_t>(e.off),
                            static_cast<std::size_t>(e.len)));
    SpanSink sink{dst + first[static_cast<std::size_t>(s)], radius};
    decode_stream(br, h.cb, radius, static_cast<std::size_t>(e.count), sink);
  };

  exec::parallel_for(shard_count, decode_one, lanes);
}

}  // namespace

std::uint32_t quant_stream_shards(std::span<const std::byte> in) {
  if (!is_sharded_quant_stream(in)) return 1;
  BitReader br(in);
  (void)br.read_bits(48);
  if (br.read_bits(8) != kShardLayoutVersion)
    throw CodecError("quant codec: unknown shard layout version");
  const std::uint64_t n = br.read_bits(48);
  const std::uint64_t w = br.read_bits(16);
  if (w < 2 || w > kMaxEntropyShards || w > n)
    throw CodecError("quant codec: bad shard count");
  return static_cast<std::uint32_t>(w);
}

std::vector<std::uint32_t> decode_quant_codes(std::span<const std::byte> in,
                                              std::uint32_t radius) {
  if (is_sharded_quant_stream(in)) {
    const ShardedHeader h = parse_sharded(in, kAnyCount);
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(h.n));
    decode_shards(in, radius, codes.data(), h, 0);
    return codes;
  }
  BitReader br(in);
  const auto n = static_cast<std::size_t>(br.read_bits(48));
  if (n > kMaxCount) throw CodecError("quant codec: implausible count");
  const auto cb = HuffmanCodebook::deserialize(br);

  std::vector<std::uint32_t> codes;
  // A symbol costs >= 1 bit, so clamp the reserve by the payload actually
  // held: a hostile 48-bit count must not size an allocation.
  codes.reserve(std::min<std::size_t>(n, static_cast<std::size_t>(br.bits_remaining())));
  struct VecSink {
    std::vector<std::uint32_t>& out;
    std::uint32_t zero;
    void literal(std::uint32_t sym) { out.push_back(sym); }
    void run(std::size_t count) { out.insert(out.end(), count, zero); }
  } sink{codes, radius};
  decode_stream(br, cb, radius, n, sink);
  return codes;
}

void decode_quant_codes_into(std::span<const std::byte> in, std::uint32_t radius,
                             AlignedVec<std::uint32_t>& out,
                             std::uint64_t expected_count, int lanes) {
  if (is_sharded_quant_stream(in)) {
    const ShardedHeader h = parse_sharded(in, expected_count);
    out.resize(static_cast<std::size_t>(h.n));
    decode_shards(in, radius, out.data(), h, lanes);
    return;
  }
  BitReader br(in);
  const auto n = static_cast<std::size_t>(br.read_bits(48));
  if (n != expected_count) throw CodecError("quant codec: count mismatch");
  const auto cb = HuffmanCodebook::deserialize(br);
  out.resize(n);
  SpanSink sink{out.data(), radius};
  decode_stream(br, cb, radius, n, sink);
}

}  // namespace mrc::lossless
