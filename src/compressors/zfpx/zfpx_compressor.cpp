#include "compressors/zfpx/zfpx_compressor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "exec/thread_pool.h"
#include "lossless/bitstream.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace zfpx_detail {

void fwd_lift(std::int32_t* p, std::ptrdiff_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

namespace {

// Two's-complement wrapping add/sub: a corrupt block can drive the inverse
// lift past int32, where plain signed += / -= is undefined. Valid blocks
// never wrap, so for them these are the plain sums.
std::int32_t wrap_add(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
std::int32_t wrap_sub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

}  // namespace

void inv_lift(std::int32_t* p, std::ptrdiff_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = wrap_add(y, w >> 1); w = wrap_sub(w, y >> 1);
  y = wrap_add(y, w); w <<= 1; w = wrap_sub(w, y);
  z = wrap_add(z, x); x <<= 1; x = wrap_sub(x, z);
  y = wrap_add(y, z); z <<= 1; z = wrap_sub(z, y);
  w = wrap_add(w, x); x <<= 1; x = wrap_sub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

const std::array<std::uint8_t, 64>& sequency_perm() {
  static const std::array<std::uint8_t, 64> perm = [] {
    std::array<std::uint8_t, 64> p{};
    std::array<int, 64> idx{};
    std::iota(idx.begin(), idx.end(), 0);
    auto key = [](int i) {
      const int x = i & 3, y = (i >> 2) & 3, z = (i >> 4) & 3;
      return std::tuple(x + y + z, x * x + y * y + z * z, i);
    };
    std::sort(idx.begin(), idx.end(), [&](int a, int b) { return key(a) < key(b); });
    for (int i = 0; i < 64; ++i) p[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(idx[static_cast<std::size_t>(i)]);
    return p;
  }();
  return perm;
}

}  // namespace zfpx_detail

namespace {

using zfpx_detail::fwd_lift;
using zfpx_detail::inv_lift;
using zfpx_detail::sequency_perm;

constexpr int kIntPrec = 32;
constexpr int kExpBias = 300;  // biased block exponent, 10 bits

std::uint32_t to_negabinary(std::int32_t x) {
  const std::uint32_t mask = 0xaaaaaaaau;
  return (static_cast<std::uint32_t>(x) + mask) ^ mask;
}
std::int32_t from_negabinary(std::uint32_t u) {
  const std::uint32_t mask = 0xaaaaaaaau;
  return static_cast<std::int32_t>((u ^ mask) - mask);
}

/// Bitplanes coded for a block: ZFP's accuracy-mode precision formula for
/// 3-D data (minexp = floor(log2(eb))).
int block_precision(int emax, int minexp) {
  return std::clamp(emax - minexp + 2 * (3 + 1), 0, kIntPrec);
}

void encode_block(lossless::BitWriter& bw, const float* vals, double eb_log2_floor) {
  float maxabs = 0.0f;
  for (int i = 0; i < 64; ++i) maxabs = std::max(maxabs, std::abs(vals[i]));

  const int minexp = static_cast<int>(eb_log2_floor);
  int emax = 0;
  int prec = 0;
  if (maxabs > 0.0f) {
    std::frexp(maxabs, &emax);  // maxabs = m * 2^emax, m in [0.5, 1)
    prec = block_precision(emax, minexp);
  }
  if (prec == 0) {
    bw.write_bit(0);  // empty / all-below-tolerance block
    return;
  }
  bw.write_bit(1);
  bw.write_bits(static_cast<std::uint64_t>(emax + kExpBias), 10);

  // Block floating point: scale into int32 with two guard bits.
  std::array<std::int32_t, 64> iblock;
  const double scale = std::ldexp(1.0, kIntPrec - 2 - emax);
  for (int i = 0; i < 64; ++i)
    iblock[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(static_cast<double>(vals[i]) * scale);

  // Decorrelate: x lines, then y, then z.
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y) fwd_lift(&iblock[static_cast<std::size_t>(4 * (y + 4 * z))], 1);
  for (int x = 0; x < 4; ++x)
    for (int z = 0; z < 4; ++z) fwd_lift(&iblock[static_cast<std::size_t>(x + 16 * z)], 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) fwd_lift(&iblock[static_cast<std::size_t>(x + 4 * y)], 16);

  const auto& perm = sequency_perm();
  std::array<std::uint32_t, 64> nb;
  for (int i = 0; i < 64; ++i)
    nb[static_cast<std::size_t>(i)] = to_negabinary(iblock[perm[static_cast<std::size_t>(i)]]);

  // Embedded coding, group testing per bit plane (ZFP's scheme).
  const int kmin = kIntPrec - prec;
  std::uint32_t n = 0;
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    std::uint64_t x = 0;
    for (int i = 0; i < 64; ++i)
      x |= static_cast<std::uint64_t>((nb[static_cast<std::size_t>(i)] >> k) & 1u) << i;

    bw.write_bits(x, static_cast<int>(n));
    x = n < 64 ? x >> n : 0;  // n == 64 once every coefficient is significant
    std::uint32_t idx = n;
    while (idx < 64) {
      const bool any = x != 0;
      bw.write_bit(any ? 1u : 0u);
      if (!any) break;
      while (idx < 63) {
        const auto bit = static_cast<std::uint32_t>(x & 1u);
        bw.write_bit(bit);
        if (bit) break;
        x >>= 1;
        ++idx;
      }
      x >>= 1;
      ++idx;
    }
    n = idx;
  }
}

void decode_block(lossless::BitReader& br, float* vals, double eb_log2_floor) {
  if (br.read_bit() == 0) {
    std::fill_n(vals, 64, 0.0f);
    return;
  }
  const int emax = static_cast<int>(br.read_bits(10)) - kExpBias;
  const int minexp = static_cast<int>(eb_log2_floor);
  const int prec = block_precision(emax, minexp);
  const int kmin = kIntPrec - prec;

  std::array<std::uint32_t, 64> nb{};
  std::uint32_t n = 0;
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    std::uint64_t x = br.read_bits(static_cast<int>(n));
    std::uint32_t idx = n;
    while (idx < 64 && br.read_bit()) {
      while (idx < 63 && !br.read_bit()) ++idx;
      x |= std::uint64_t{1} << idx;
      ++idx;
    }
    n = idx;
    for (int i = 0; x != 0; ++i, x >>= 1)
      if (x & 1u) nb[static_cast<std::size_t>(i)] |= 1u << k;
  }

  const auto& perm = sequency_perm();
  std::array<std::int32_t, 64> iblock{};
  for (int i = 0; i < 64; ++i)
    iblock[perm[static_cast<std::size_t>(i)]] = from_negabinary(nb[static_cast<std::size_t>(i)]);

  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) inv_lift(&iblock[static_cast<std::size_t>(x + 4 * y)], 16);
  for (int x = 0; x < 4; ++x)
    for (int z = 0; z < 4; ++z) inv_lift(&iblock[static_cast<std::size_t>(x + 16 * z)], 4);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y) inv_lift(&iblock[static_cast<std::size_t>(4 * (y + 4 * z))], 1);

  const double inv_scale = std::ldexp(1.0, emax - (kIntPrec - 2));
  for (int i = 0; i < 64; ++i)
    vals[i] = static_cast<float>(iblock[static_cast<std::size_t>(i)] * inv_scale);
}

/// Gathers a 4^3 block with edge replication for partial blocks.
void gather(const FieldF& f, index_t x0, index_t y0, index_t z0, float* out) {
  const Dim3& d = f.dims();
  for (index_t k = 0; k < 4; ++k) {
    const index_t z = std::min(z0 + k, d.nz - 1);
    for (index_t j = 0; j < 4; ++j) {
      const index_t y = std::min(y0 + j, d.ny - 1);
      for (index_t i = 0; i < 4; ++i) {
        const index_t x = std::min(x0 + i, d.nx - 1);
        out[i + 4 * (j + 4 * k)] = f.at(x, y, z);
      }
    }
  }
}

void scatter(FieldF& f, index_t x0, index_t y0, index_t z0, const float* in) {
  const Dim3& d = f.dims();
  for (index_t k = 0; k < 4 && z0 + k < d.nz; ++k)
    for (index_t j = 0; j < 4 && y0 + j < d.ny; ++j)
      for (index_t i = 0; i < 4 && x0 + i < d.nx; ++i)
        f.at(x0 + i, y0 + j, z0 + k) = in[i + 4 * (j + 4 * k)];
}

}  // namespace

ZfpxCompressor::ZfpxCompressor(ZfpxConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.chunks >= 1, "bad chunk count");
}

std::string ZfpxCompressor::name() const {
  return cfg_.chunks > 1 ? "zfpx(mt)" : "zfpx";
}

Bytes ZfpxCompressor::compress(const FieldF& f, double abs_eb) const {
  // The bound feeds the quantizer (and zfpx's exponent cast) before the
  // header's own check runs, so a non-finite one must stop here.
  MRC_REQUIRE(abs_eb > 0.0 && std::isfinite(abs_eb),
              "error bound must be finite and > 0");
  MRC_REQUIRE(!f.empty(), "empty field");
  const Dim3 d = f.dims();
  const Dim3 nb = blocks_for(d, kBlock);
  const double minexp = std::floor(std::log2(abs_eb));
  // entropy_shards folds into chunking: zfpx chunk streams are already
  // independently decodable, so more chunks IS the sharded-decode story here.
  const auto want_chunks = std::max<index_t>(
      cfg_.chunks, static_cast<index_t>(std::min<std::uint32_t>(
                       cfg_.entropy_shards, lossless::kMaxEntropyShards)));
  const int n_chunks = static_cast<int>(std::min<index_t>(want_chunks, nb.nz));

  std::vector<Bytes> streams(static_cast<std::size_t>(n_chunks));

  exec::for_slabs(nb.nz, n_chunks, [&](index_t c, index_t bz0, index_t bz1) {
    // zfpx fuses transform + bit-plane coding per block, so one span covers
    // the chunk's whole encode; the duration feeds the entropy-stage total.
    static obs::Counter& ns_ent =
        obs::Registry::global().counter("mrc.codec.entropy.encode_ns");
    OBS_SPAN("zfpx.encode_blocks", &ns_ent);
    lossless::BitWriter bw;
    // Typical accuracy-mode blocks land well under 32 bytes; one up-front
    // reservation replaces the first few doublings of the chunk stream.
    bw.reserve_bytes(static_cast<std::size_t>((bz1 - bz0) * nb.ny * nb.nx) * 16);
    float block[64];
    for (index_t bz = bz0; bz < bz1; ++bz)
      for (index_t by = 0; by < nb.ny; ++by)
        for (index_t bx = 0; bx < nb.nx; ++bx) {
          gather(f, bx * kBlock, by * kBlock, bz * kBlock, block);
          encode_block(bw, block, minexp);
        }
    streams[static_cast<std::size_t>(c)] = bw.take();
  });

  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kMagic, d, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(n_chunks));
  for (const auto& s : streams) w.put_blob(s);
  return out;
}

FieldF ZfpxCompressor::decompress(std::span<const std::byte> stream) const {
  ByteReader r(stream);
  const auto h = detail::read_header(r, kMagic, "zfpx");
  const auto n_chunks = static_cast<int>(r.get_varint());
  const Dim3 d = h.dims;
  const Dim3 nb = blocks_for(d, kBlock);
  if (n_chunks < 1 || n_chunks > nb.nz) throw CodecError("zfpx: bad chunk count");
  const double minexp = std::floor(std::log2(h.eb));

  std::vector<std::span<const std::byte>> chunk_in(static_cast<std::size_t>(n_chunks));
  for (auto& ci : chunk_in) ci = r.get_blob();

  FieldF recon(d);

  exec::for_slabs(nb.nz, n_chunks, [&](index_t c, index_t bz0, index_t bz1) {
   try {
    static obs::Counter& ns_ent =
        obs::Registry::global().counter("mrc.codec.entropy.decode_ns");
    OBS_SPAN("zfpx.decode_blocks", &ns_ent);
    lossless::BitReader br(chunk_in[static_cast<std::size_t>(c)]);
    float block[64];
    for (index_t bz = bz0; bz < bz1; ++bz)
      for (index_t by = 0; by < nb.ny; ++by)
        for (index_t bx = 0; bx < nb.nx; ++bx) {
          decode_block(br, block, minexp);
          scatter(recon, bx * kBlock, by * kBlock, bz * kBlock, block);
        }
   } catch (...) {
     throw CodecError("zfpx: corrupt chunk stream");
   }
  });
  return recon;
}

}  // namespace mrc
