#include "compressors/quantize/quantize_compressor.h"

#include <algorithm>
#include <cmath>

#include "compressors/simd_kernels.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {

constexpr detail::PayloadNames kPayloadNames{"quantize", "quantize.entropy",
                                             "quantize.lossless"};

// The two passes live in their own non-inlined functions, free of any obs::
// code, so the OBS_SPANs at their call sites cannot perturb the loops'
// codegen (the placement rule next to OBS_SPAN in obs/obs.h). Both call the
// plane kernels with m = gx = aj = ak = ci = 0: the prediction
// ((0 + 0*i) + 0) + 0 is exactly +0.0 for every i >= 0.

MRC_OBS_NOINLINE void quantize_pass(const float* x, std::size_t n, double eb,
                                    std::uint32_t radius, std::uint32_t* codes,
                                    AlignedVec<float>& outliers) {
  // The encoder never reads its reconstruction back, so the kernel's recon
  // output lands in one small reused row instead of a field-sized buffer.
  constexpr std::size_t kRow = 4096;
  alignas(64) float recon[kRow];
  for (std::size_t i = 0; i < n; i += kRow) {
    const std::size_t len = std::min(kRow, n - i);
    simd::quantize_row_plane(x + i, len, 0.0, 0.0, 0.0, 0.0, 0.0, eb, radius, codes + i,
                             recon, outliers);
  }
}

MRC_OBS_NOINLINE void dequantize_pass(const std::uint32_t* codes, std::size_t n,
                                      double eb, std::uint32_t radius, float* out,
                                      std::span<const float> outliers) {
  std::size_t pos = 0;  // the kernel throws CodecError when the outliers run out
  simd::dequantize_row_plane(codes, n, 0.0, 0.0, 0.0, 0.0, 0.0, eb, radius, out, outliers,
                             pos);
  if (pos != outliers.size()) throw CodecError("quantize: leftover outliers");
}

}  // namespace

QuantizeCompressor::QuantizeCompressor(QuantizeConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.quant_radius >= 2 && cfg_.quant_radius <= lossless::kMaxQuantRadius,
              "quant radius out of range");
}

std::string QuantizeCompressor::name() const { return "quantize"; }

Bytes QuantizeCompressor::compress(const FieldF& f, double abs_eb) const {
  MRC_REQUIRE(abs_eb > 0.0 && std::isfinite(abs_eb),
              "error bound must be finite and > 0");
  MRC_REQUIRE(!f.empty(), "empty field");
  const auto n = static_cast<std::size_t>(f.size());
  const auto radius = cfg_.quant_radius;

  // Per-lane scratch, reused across the bricks a container compresses on
  // one pool lane (see interp_compressor.cpp).
  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  codes.resize(n);
  outliers.clear();

  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.encode_ns");
  {
    OBS_SPAN("quantize.predict_quant", &ns_pq);
    quantize_pass(f.data(), n, abs_eb, radius, codes.data(), outliers);
  }

  const std::uint32_t shards = lossless::negotiate_entropy_shards(n, cfg_.entropy_shards);
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kMagic, f.dims(), abs_eb, shards);
  w.put_varint(radius);
  detail::write_quant_payload(w, kPayloadNames, codes, radius, shards, 1, outliers);
  return out;
}

FieldF QuantizeCompressor::decompress(std::span<const std::byte> stream) const {
  ByteReader r(stream);
  const auto h = detail::read_header(r, kMagic, "quantize");
  const std::uint32_t radius = detail::read_radius(r, "quantize");
  const detail::QuantPayload payload(r);
  if (r.remaining() != 0) throw CodecError("quantize: trailing bytes");

  thread_local AlignedVec<std::uint32_t> codes;
  thread_local AlignedVec<float> outliers;
  const detail::ScratchGuard gc(codes);
  const detail::ScratchGuard go(outliers);
  payload.decode(kPayloadNames, radius, static_cast<std::uint64_t>(h.dims.size()), codes,
                 outliers);

  static obs::Counter& ns_pq =
      obs::Registry::global().counter("mrc.codec.predict_quant.decode_ns");
  FieldF recon(h.dims);
  OBS_SPAN("quantize.predict_recon", &ns_pq);
  dequantize_pass(codes.data(), codes.size(), h.eb, radius, recon.data(),
                  std::span<const float>(outliers.data(), outliers.size()));
  return recon;
}

}  // namespace mrc
