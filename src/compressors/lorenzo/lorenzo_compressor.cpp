#include "compressors/lorenzo/lorenzo_compressor.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "exec/thread_pool.h"
#include "compressors/quantizer.h"
#include "compressors/simd_kernels.h"
#include "lossless/bitstream.h"
#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {

constexpr detail::PayloadNames kPayloadNames{"lorenzo", "lorenzo.entropy",
                                             "lorenzo.lossless"};

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Regression plane v ≈ m + gx*(i-ci) + gy*(j-cj) + gz*(k-ck), local coords.
struct Plane {
  double m = 0, gx = 0, gy = 0, gz = 0;
};

Plane fit_plane(const float* orig, const Dim3& d, index_t x0, index_t y0, index_t z0,
                index_t ex, index_t ey, index_t ez) {
  const double ci = (ex - 1) / 2.0, cj = (ey - 1) / 2.0, ck = (ez - 1) / 2.0;
  double sum = 0, sx = 0, sy = 0, sz = 0;
  for (index_t k = 0; k < ez; ++k)
    for (index_t j = 0; j < ey; ++j) {
      const float* row = orig + d.index(x0, y0 + j, z0 + k);
      for (index_t i = 0; i < ex; ++i) {
        const double v = row[i];
        sum += v;
        sx += v * (i - ci);
        sy += v * (j - cj);
        sz += v * (k - ck);
      }
    }
  const double n = static_cast<double>(ex * ey * ez);
  auto var1d = [](index_t e) { return static_cast<double>(e) * (e * e - 1) / 12.0; };
  Plane p;
  p.m = sum / n;
  const double vx = var1d(ex) * ey * ez;
  const double vy = var1d(ey) * ex * ez;
  const double vz = var1d(ez) * ex * ey;
  p.gx = vx > 0 ? sx / vx : 0.0;
  p.gy = vy > 0 ? sy / vy : 0.0;
  p.gz = vz > 0 ? sz / vz : 0.0;
  return p;
}

/// 3-D Lorenzo prediction from reconstructed data; positions below `zmin`
/// (the chunk floor) or outside the domain contribute zero, so chunks stay
/// independent.
double lorenzo_pred(const float* recon, const Dim3& d, index_t x, index_t y, index_t z,
                    index_t zmin) {
  auto v = [&](index_t dx, index_t dy, index_t dz) -> double {
    const index_t xx = x - dx, yy = y - dy, zz = z - dz;
    if (xx < 0 || yy < 0 || zz < zmin) return 0.0;
    return recon[d.index(xx, yy, zz)];
  };
  return v(1, 0, 0) + v(0, 1, 0) + v(0, 0, 1) - v(1, 1, 0) - v(1, 0, 1) - v(0, 1, 1) +
         v(1, 1, 1);
}

/// Branch-free interior form of lorenzo_pred: valid when x >= 1, y >= 1 and
/// z >= zmin+1, where all seven stencil neighbours exist and the 21 bounds
/// checks of v() collapse to straight loads. Same terms, same left-to-right
/// summation order — bit-identical to the checked form.
double lorenzo_pred_fast(const float* recon, index_t idx, index_t sy, index_t sz) {
  const double v100 = recon[idx - 1];
  const double v010 = recon[idx - sy];
  const double v001 = recon[idx - sz];
  const double v110 = recon[idx - 1 - sy];
  const double v101 = recon[idx - 1 - sz];
  const double v011 = recon[idx - sy - sz];
  const double v111 = recon[idx - 1 - sy - sz];
  return v100 + v010 + v001 - v110 - v101 - v011 + v111;
}

struct ChunkStream {
  Bytes flags;
  Bytes coeffs;
  Bytes payload;  ///< detail::write_quant_payload's code and outlier blobs
};

struct CoeffQuant {
  double pm, pg;  // precision of mean / gradient codes

  std::array<std::int64_t, 4> quantize(const Plane& p) const {
    return {std::llround(p.m / pm), std::llround(p.gx / pg), std::llround(p.gy / pg),
            std::llround(p.gz / pg)};
  }
  Plane dequantize(const std::array<std::int64_t, 4>& q) const {
    return {q[0] * pm, q[1] * pg, q[2] * pg, q[3] * pg};
  }
};

}  // namespace

LorenzoCompressor::LorenzoCompressor(LorenzoConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.block_size >= 2, "block size too small");
  MRC_REQUIRE(cfg_.quant_radius >= 2 && cfg_.quant_radius <= lossless::kMaxQuantRadius,
              "quant radius out of range");
  MRC_REQUIRE(cfg_.chunks >= 1, "bad chunk count");
}

std::string LorenzoCompressor::name() const {
  return cfg_.chunks > 1 ? "lorenzo(mt)" : "lorenzo";
}

Bytes LorenzoCompressor::compress(const FieldF& f, double abs_eb) const {
  // The bound feeds the quantizer (and zfpx's exponent cast) before the
  // header's own check runs, so a non-finite one must stop here.
  MRC_REQUIRE(abs_eb > 0.0 && std::isfinite(abs_eb),
              "error bound must be finite and > 0");
  MRC_REQUIRE(!f.empty(), "empty field");
  const Dim3 d = f.dims();
  const index_t bs = cfg_.block_size;
  const index_t nbz = ceil_div(d.nz, bs);
  const int n_chunks = static_cast<int>(std::min<index_t>(cfg_.chunks, nbz));
  const CoeffQuant cq{abs_eb / 2.0, abs_eb / (2.0 * static_cast<double>(bs))};
  const LinearQuantizer quant{abs_eb, cfg_.quant_radius};

  FieldF recon(d);
  std::vector<ChunkStream> chunks(static_cast<std::size_t>(n_chunks));
  const float* orig = f.data();

  exec::for_slabs(nbz, n_chunks, [&](index_t c, index_t bz0, index_t bz1) {
    const index_t zmin = bz0 * bs;

    lossless::BitWriter flag_bits;
    Bytes coeff_bytes;
    ByteWriter coeff_writer(coeff_bytes);
    // Per-lane scratch, reused when several chunks land on one pool lane;
    // 64-byte aligned for the SIMD row kernels.
    thread_local AlignedVec<std::uint32_t> codes;
    thread_local AlignedVec<float> outliers;
    const detail::ScratchGuard gc(codes);
    const detail::ScratchGuard go(outliers);
    codes.resize(static_cast<std::size_t>(
        (std::min(bz1 * bs, d.nz) - zmin) * d.nx * d.ny));
    outliers.clear();
    std::size_t emitted = 0;
    std::array<std::int64_t, 4> prev_q{0, 0, 0, 0};

    static obs::Counter& ns_pq =
        obs::Registry::global().counter("mrc.codec.predict_quant.encode_ns");
    static obs::Counter& ns_ll =
        obs::Registry::global().counter("mrc.codec.lossless.encode_ns");
    {
      OBS_SPAN("lorenzo.predict_quant", &ns_pq);
      for (index_t bz = bz0; bz < bz1; ++bz)
        for (index_t by = 0; by < ceil_div(d.ny, bs); ++by)
          for (index_t bx = 0; bx < ceil_div(d.nx, bs); ++bx) {
            const index_t x0 = bx * bs, y0 = by * bs, z0 = bz * bs;
            const index_t ex = std::min(bs, d.nx - x0);
            const index_t ey = std::min(bs, d.ny - y0);
            const index_t ez = std::min(bs, d.nz - z0);

            // Predictor selection on original data.
            bool use_reg = false;
            Plane plane;
            if (cfg_.use_regression && ex * ey * ez >= 8) {
              plane = fit_plane(orig, d, x0, y0, z0, ex, ey, ez);
              double err_reg = 0, err_lor = 0;
              const double ci = (ex - 1) / 2.0, cj = (ey - 1) / 2.0, ck = (ez - 1) / 2.0;
              for (index_t k = 0; k < ez; ++k)
                for (index_t j = 0; j < ey; ++j)
                  for (index_t i = 0; i < ex; ++i) {
                    const double v = orig[d.index(x0 + i, y0 + j, z0 + k)];
                    const double pr =
                        plane.m + plane.gx * (i - ci) + plane.gy * (j - cj) + plane.gz * (k - ck);
                    err_reg += std::abs(v - pr);
                    // Lorenzo over the original data: SZ2's cheap selection
                    // estimate, free of any reconstruction dependency.
                    err_lor += std::abs(
                        v - lorenzo_pred(orig, d, x0 + i, y0 + j, z0 + k, zmin));
                  }
              use_reg = err_reg < err_lor;
            }
            flag_bits.write_bit(use_reg ? 1u : 0u);

            Plane qplane;
            if (use_reg) {
              const auto q = cq.quantize(plane);
              for (int t = 0; t < 4; ++t) {
                coeff_writer.put_varint(zigzag(q[t] - prev_q[t]));
              }
              prev_q = q;
              qplane = cq.dequantize(q);
            }

            const double ci = (ex - 1) / 2.0, cj = (ey - 1) / 2.0, ck = (ez - 1) / 2.0;
            if (use_reg) {
              // Plane prediction is row-uniform along x: one kernel call per
              // row, with the j/k gradient terms hoisted (same factors the
              // scalar expression multiplies — bit-identical).
              for (index_t k = 0; k < ez; ++k)
                for (index_t j = 0; j < ey; ++j) {
                  const index_t idx = d.index(x0, y0 + j, z0 + k);
                  const double aj = qplane.gy * (static_cast<double>(j) - cj);
                  const double ak = qplane.gz * (static_cast<double>(k) - ck);
                  simd::quantize_row_plane(orig + idx, static_cast<std::size_t>(ex),
                                           qplane.m, qplane.gx, ci, aj, ak, abs_eb,
                                           cfg_.quant_radius, codes.data() + emitted,
                                           recon.data() + idx, outliers);
                  emitted += static_cast<std::size_t>(ex);
                }
            } else {
              float* rec = recon.data();
              for (index_t k = 0; k < ez; ++k)
                for (index_t j = 0; j < ey; ++j) {
                  const bool interior_row = y0 + j >= 1 && z0 + k >= zmin + 1;
                  for (index_t i = 0; i < ex; ++i) {
                    const index_t idx = d.index(x0 + i, y0 + j, z0 + k);
                    const double pred =
                        interior_row && x0 + i >= 1
                            ? lorenzo_pred_fast(rec, idx, d.nx, d.nx * d.ny)
                            : lorenzo_pred(rec, d, x0 + i, y0 + j, z0 + k, zmin);
                    codes[emitted++] = quant.encode(orig[idx], pred, rec[idx], outliers);
                  }
                }
            }
          }

    }
    auto& cs = chunks[static_cast<std::size_t>(c)];
    cs.flags = flag_bits.take();
    {
      OBS_SPAN("lorenzo.lossless", &ns_ll);
      cs.coeffs = lossless::lzss_compress(coeff_bytes);
    }
    ByteWriter payload(cs.payload);
    detail::write_quant_payload(payload, kPayloadNames, codes, cfg_.quant_radius,
                                cfg_.entropy_shards, 1, outliers);
  });

  // Header entropy-layout minor version: the widest shard count any chunk
  // actually negotiated (the chunk cell counts are closed-form, so this
  // agrees with what encode_quant_codes_sharded emitted above).
  std::uint32_t header_shards = 1;
  for (int c = 0; c < n_chunks; ++c) {
    const index_t bz0 = nbz * c / n_chunks;
    const index_t bz1 = nbz * (c + 1) / n_chunks;
    const auto cells = static_cast<std::uint64_t>(
        (std::min(bz1 * bs, d.nz) - bz0 * bs) * d.nx * d.ny);
    header_shards = std::max(
        header_shards, lossless::negotiate_entropy_shards(cells, cfg_.entropy_shards));
  }

  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kMagic, d, abs_eb, header_shards);
  w.put_varint(static_cast<std::uint64_t>(bs));
  w.put_varint(cfg_.quant_radius);
  w.put(static_cast<std::uint8_t>(cfg_.use_regression ? 1 : 0));
  w.put_varint(static_cast<std::uint64_t>(n_chunks));
  for (const auto& cs : chunks) {
    w.put_blob(cs.flags);
    w.put_blob(cs.coeffs);
    w.put_bytes(cs.payload);
  }
  return out;
}

FieldF LorenzoCompressor::decompress(std::span<const std::byte> stream) const {
  ByteReader r(stream);
  const auto h = detail::read_header(r, kMagic, "lorenzo");
  const auto bs = static_cast<index_t>(r.get_varint());
  const std::uint32_t radius = detail::read_radius(r, "lorenzo");
  (void)r.get<std::uint8_t>();  // use_regression flag (informational)
  const auto n_chunks = static_cast<int>(r.get_varint());
  const Dim3 d = h.dims;
  if (bs < 2) throw CodecError("lorenzo: bad block size");
  const index_t nbz = ceil_div(d.nz, bs);
  if (n_chunks < 1 || n_chunks > nbz) throw CodecError("lorenzo: bad chunk count");
  const CoeffQuant cq{h.eb / 2.0, h.eb / (2.0 * static_cast<double>(bs))};
  const LinearQuantizer quant{h.eb, radius};

  struct ChunkIn {
    std::span<const std::byte> flags, coeffs;
    detail::QuantPayload payload;
  };
  std::vector<ChunkIn> chunk_in;
  for (int c = 0; c < n_chunks; ++c) {
    const auto flags = r.get_blob();
    const auto coeffs = r.get_blob();
    chunk_in.push_back({flags, coeffs, detail::QuantPayload(r)});
  }

  FieldF recon(d);

  exec::for_slabs(nbz, n_chunks, [&](index_t c, index_t bz0, index_t bz1) {
   try {
    const index_t zmin = bz0 * bs;
    const auto& ci_in = chunk_in[static_cast<std::size_t>(c)];

    static obs::Counter& ns_pq =
        obs::Registry::global().counter("mrc.codec.predict_quant.decode_ns");
    static obs::Counter& ns_ll =
        obs::Registry::global().counter("mrc.codec.lossless.decode_ns");

    lossless::BitReader flag_bits(ci_in.flags);
    const auto coeff_raw = [&] {
      OBS_SPAN("lorenzo.lossless", &ns_ll);
      return lossless::lzss_decompress(ci_in.coeffs);
    }();
    ByteReader coeff_reader(coeff_raw);
    // Per-lane scratch; the chunk's cell count is a closed-form function of
    // its z-slab, and the payload checks the stream's count against it
    // before sizing the buffer.
    thread_local AlignedVec<std::uint32_t> codes;
    thread_local AlignedVec<float> outliers;
    const detail::ScratchGuard gc(codes);
    const detail::ScratchGuard go(outliers);
    ci_in.payload.decode(
        kPayloadNames, radius,
        static_cast<std::uint64_t>((std::min(bz1 * bs, d.nz) - zmin) * d.nx * d.ny), codes,
        outliers);

    std::size_t code_pos = 0, outlier_pos = 0;
    std::array<std::int64_t, 4> prev_q{0, 0, 0, 0};

    // Closes at the end of the try block — the block loop is its last
    // statement, so the span covers exactly the reconstruction sweep.
    obs::Span span_recon("lorenzo.predict_recon", &ns_pq);
    for (index_t bz = bz0; bz < bz1; ++bz)
      for (index_t by = 0; by < ceil_div(d.ny, bs); ++by)
        for (index_t bx = 0; bx < ceil_div(d.nx, bs); ++bx) {
          const index_t x0 = bx * bs, y0 = by * bs, z0 = bz * bs;
          const index_t ex = std::min(bs, d.nx - x0);
          const index_t ey = std::min(bs, d.ny - y0);
          const index_t ez = std::min(bs, d.nz - z0);

          const bool use_reg = flag_bits.read_bit() != 0;
          Plane qplane;
          if (use_reg) {
            std::array<std::int64_t, 4> q;
            for (int t = 0; t < 4; ++t)
              q[t] = prev_q[t] + unzigzag(coeff_reader.get_varint());
            prev_q = q;
            qplane = cq.dequantize(q);
          }

          const double cx = (ex - 1) / 2.0, cy = (ey - 1) / 2.0, cz = (ez - 1) / 2.0;
          const std::span<const float> ospan(outliers.data(), outliers.size());
          if (use_reg) {
            for (index_t k = 0; k < ez; ++k)
              for (index_t j = 0; j < ey; ++j) {
                if (code_pos + static_cast<std::size_t>(ex) > codes.size())
                  throw CodecError("lorenzo: code underrun");
                const index_t idx = d.index(x0, y0 + j, z0 + k);
                const double aj = qplane.gy * (static_cast<double>(j) - cy);
                const double ak = qplane.gz * (static_cast<double>(k) - cz);
                simd::dequantize_row_plane(codes.data() + code_pos,
                                           static_cast<std::size_t>(ex), qplane.m,
                                           qplane.gx, cx, aj, ak, h.eb, radius,
                                           recon.data() + idx, ospan, outlier_pos);
                code_pos += static_cast<std::size_t>(ex);
              }
          } else {
            float* rec = recon.data();
            for (index_t k = 0; k < ez; ++k)
              for (index_t j = 0; j < ey; ++j) {
                const bool interior_row = y0 + j >= 1 && z0 + k >= zmin + 1;
                for (index_t i = 0; i < ex; ++i) {
                  const index_t idx = d.index(x0 + i, y0 + j, z0 + k);
                  const double pred =
                      interior_row && x0 + i >= 1
                          ? lorenzo_pred_fast(rec, idx, d.nx, d.nx * d.ny)
                          : lorenzo_pred(rec, d, x0 + i, y0 + j, z0 + k, zmin);
                  if (code_pos >= codes.size()) throw CodecError("lorenzo: code underrun");
                  rec[idx] = quant.decode(codes[code_pos++], pred, ospan, outlier_pos);
                }
              }
          }
        }
   } catch (...) {
     throw CodecError("lorenzo: corrupt chunk stream");
   }
  });
  return recon;
}

}  // namespace mrc
