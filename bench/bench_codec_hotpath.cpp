// bench_codec_hotpath — single-thread throughput of the entropy hot path:
// raw bitstream writes/reads, canonical-Huffman encode/decode, and the full
// quant-code codec, each measured against a faithful reimplementation of the
// pre-optimization bit-at-a-time coder (kept here as the baseline). The
// baseline produces byte-identical streams — asserted on every run — so the
// speedup columns compare two coders of the *same frozen format*.
//
// Two more comparisons ride along since the SIMD/sharding PR:
//   * predict_quant_{interp,lorenzo} — the full predictor+quantizer compress
//     of each codec with SIMD dispatch forced to scalar (baseline) vs the
//     runtime-dispatched kernels (optimized), their reps alternating in one
//     process; streams asserted byte-identical.
//   * sharded_decode_tN — one brick-sized quant stream decoded from the
//     frozen monolithic layout (baseline) vs the sharded layout on N lanes
//     (optimized); bytes asserted identical.
//   * uq_normal_cdf — the crossing probability's per-voxel normal CDF on a
//     mini-Nyx timestep with its fitted error model: std::erfc per voxel
//     (baseline) vs the dispatched in-tree CDF row (optimized); the two
//     asserted within 2^-51 of each other.
//
// Results land in BENCH_codec_hotpath.json
// (stage, baseline_mb_s, optimized_mb_s, speedup), with a top-level
// usable_lanes: how many of a 4-lane pool's lanes the machine ran at once
// just before and just after the sharded rows, and simd_isa: the dispatched
// ISA. ci.sh runs this in its bench-smoke step. The >= 3x canonical-Huffman
// decode target is gated here with MRC_REQUIRE; ci.sh additionally gates
// quant_encode absolute MB/s, where usable_lanes shows four lanes can run
// the sharded decode's 4-lane over 1-lane ratio (sharded_decode_t4 /
// sharded_decode_t1), and where simd_isa is avx2 the uq_normal_cdf and
// predict_quant_interp speedups, all from the JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numbers>
#include <string>
#include <vector>

#include "api/mrc_api.h"
#include "bench_util.h"
#include "common/rng.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/simd_kernels.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "lossless/bitstream.h"
#include "lossless/huffman.h"
#include "lossless/quant_codec.h"
#include "ref_bitcoder.h"
#include "simdata/mini_nyx.h"
#include "uncertainty/error_model.h"
#include "uncertainty/probabilistic_mc.h"

using namespace mrc;
using namespace mrc::lossless;

namespace {

struct Row {
  std::string stage;
  double baseline_mb_s = 0.0;
  double optimized_mb_s = 0.0;
  [[nodiscard]] double speedup() const {
    return baseline_mb_s > 0.0 ? optimized_mb_s / baseline_mb_s : 0.0;
  }
};

/// Wall time of one fn() call.
template <typename F>
double seconds(F&& fn) {
  obs::ScopedTimer t("bench.rep");
  fn();
  return t.seconds();
}

/// Best-of-3 wall time of fn().
template <typename F>
double best_seconds(F&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) best = std::min(best, seconds(fn));
  return best;
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// 2^24 dependent xorshift64 steps from `x` (never 0). Kept out of line so
/// the compiler can neither merge nor interleave the chains usable_lanes
/// runs back to back.
__attribute__((noinline)) std::uint64_t spin(std::uint64_t x) {
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Serial time over ThreadPool(4) time for four equal CPU-bound tasks: ~4
/// on four free cores, ~1 when the scheduler runs every thread of the
/// process on one CPU. Each task starts from its own seed, taken from
/// run-time data, so no two tasks compute the same value.
double usable_lanes(std::uint64_t seed) {
  std::uint64_t serial[4] = {}, parallel[4] = {};
  const double t_serial = best_seconds([&] {
    for (std::uint64_t i = 0; i < 4; ++i) serial[i] = spin(seed + i);
  });
  exec::ThreadPool pool(4);
  const double t_parallel = best_seconds([&] {
    pool.parallel_for(4, [&](index_t i) {
      parallel[i] = spin(seed + static_cast<std::uint64_t>(i));
    });
  });
  MRC_REQUIRE(std::equal(std::begin(serial), std::end(serial), std::begin(parallel)),
              "usable_lanes: pool and serial results differ");
  return t_serial / t_parallel;
}

}  // namespace

int main() {
  bench::print_title("entropy hot path: word-at-a-time vs bit-at-a-time",
                     "perf baseline (no paper figure)", "quant-code-like symbols");

  // Quant-code-shaped symbol stream: dominant zero bin, near-zero residuals,
  // rare outliers — the distribution every container feeds this codec.
  const std::uint32_t radius = 512;
  const std::uint32_t alphabet = 2 * radius + 1;
  Rng rng(9);
  std::vector<std::uint32_t> syms;
  // 4M symbols at the default 50% scale; MRC_SCALE shrinks/grows per-axis,
  // so apply its cube to the symbol count (min 2^16 to keep timings sane).
  const double axis_scale = scale_percent() / 100.0;
  const auto n_syms = static_cast<std::size_t>(
      std::max(65536.0, (8.0 * (1 << 20)) * axis_scale * axis_scale * axis_scale));
  syms.reserve(n_syms);
  while (syms.size() < n_syms) {
    const double u = rng.uniform();
    if (u < 0.55)
      syms.push_back(radius);
    else if (u < 0.97)
      syms.push_back(radius + static_cast<std::uint32_t>(rng.uniform_index(41)) - 20);
    else
      syms.push_back(0);
  }
  const std::size_t payload_bytes = syms.size() * sizeof(std::uint32_t);
  std::printf("symbols: %zu (%.1f MB as u32)\n", syms.size(), mb(payload_bytes));

  std::vector<Row> rows;

  {  // raw bitstream: 13-bit writes / reads (an odd width defeats byte luck)
    Row r{.stage = "bitstream_write13"};
    const double t_ref = best_seconds([&] {
      ref::BitWriter bw;
      for (auto s : syms) bw.write_bits(s, 13);
      MRC_REQUIRE(!bw.bytes().empty(), "ref writer produced nothing");
    });
    BitWriter bw;
    const double t_new = best_seconds([&] {
      bw = BitWriter();
      for (auto s : syms) bw.write_bits(s, 13);
    });
    {
      ref::BitWriter rw;
      for (auto s : syms) rw.write_bits(s, 13);
      MRC_REQUIRE(rw.bytes() == bw.bytes(), "bitstream writer diverged from baseline");
    }
    r.baseline_mb_s = mb(payload_bytes) / t_ref;
    r.optimized_mb_s = mb(payload_bytes) / t_new;
    rows.push_back(r);

    const Bytes stream = bw.take();
    Row rd{.stage = "bitstream_read13"};
    std::uint64_t sink_ref = 0, sink_new = 0;
    const double rt_ref = best_seconds([&] {
      ref::BitReader br(stream);
      sink_ref = 0;
      for (std::size_t i = 0; i < syms.size(); ++i) sink_ref += br.read_bits(13);
    });
    const double rt_new = best_seconds([&] {
      BitReader br(stream);
      sink_new = 0;
      for (std::size_t i = 0; i < syms.size(); ++i) sink_new += br.read_bits(13);
    });
    MRC_REQUIRE(sink_ref == sink_new, "bitstream reader diverged from baseline");
    rd.baseline_mb_s = mb(payload_bytes) / rt_ref;
    rd.optimized_mb_s = mb(payload_bytes) / rt_new;
    rows.push_back(rd);
  }

  std::vector<std::uint64_t> freqs(alphabet, 0);
  for (auto s : syms) ++freqs[s];
  const auto cb = HuffmanCodebook::from_frequencies(freqs);
  const auto rcb = ref::Codebook::from(cb);

  Bytes huff_stream;
  {  // canonical Huffman, symbol loop only (no header)
    Row r{.stage = "huffman_encode"};
    const double t_ref = best_seconds([&] {
      ref::BitWriter bw;
      for (auto s : syms) rcb.encode(bw, s);
      MRC_REQUIRE(!bw.bytes().empty(), "ref encoder produced nothing");
    });
    BitWriter bw;
    const double t_new = best_seconds([&] {
      bw = BitWriter();
      for (auto s : syms) cb.encode(bw, s);
    });
    {
      ref::BitWriter rw;
      for (auto s : syms) rcb.encode(rw, s);
      MRC_REQUIRE(rw.bytes() == bw.bytes(), "huffman encoder diverged from baseline");
    }
    r.baseline_mb_s = mb(payload_bytes) / t_ref;
    r.optimized_mb_s = mb(payload_bytes) / t_new;
    rows.push_back(r);
    huff_stream = bw.take();
  }

  double huffman_decode_speedup = 0.0;
  {  // canonical Huffman decode — the acceptance-gated stage
    Row r{.stage = "huffman_decode"};
    std::vector<std::uint32_t> out(syms.size());
    const double t_ref = best_seconds([&] {
      ref::BitReader br(huff_stream);
      for (auto& o : out) o = rcb.decode(br);
    });
    MRC_REQUIRE(out == syms, "baseline huffman decode mismatch");
    std::fill(out.begin(), out.end(), 0u);
    const double t_new = best_seconds([&] {
      BitReader br(huff_stream);
      for (auto& o : out) o = cb.decode(br);
    });
    MRC_REQUIRE(out == syms, "optimized huffman decode mismatch");
    r.baseline_mb_s = mb(payload_bytes) / t_ref;
    r.optimized_mb_s = mb(payload_bytes) / t_new;
    huffman_decode_speedup = r.speedup();
    rows.push_back(r);
  }

  {  // full quant codec: tokenization + codebook + stream
    Row re{.stage = "quant_encode"};
    const double te_ref =
        best_seconds([&] { (void)ref::encode_quant(syms, radius); });
    Bytes enc;
    const double te_new =
        best_seconds([&] { enc = encode_quant_codes(syms, radius); });
    MRC_REQUIRE(ref::encode_quant(syms, radius) == enc,
                "quant encoder diverged from baseline");
    re.baseline_mb_s = mb(payload_bytes) / te_ref;
    re.optimized_mb_s = mb(payload_bytes) / te_new;
    rows.push_back(re);

    Row rd{.stage = "quant_decode"};
    const double td_ref = best_seconds([&] { (void)ref::decode_quant(enc, radius); });
    MRC_REQUIRE(ref::decode_quant(enc, radius) == syms,
                "baseline quant decode mismatch");
    AlignedVec<std::uint32_t> out;
    const double td_new = best_seconds(
        [&] { decode_quant_codes_into(enc, radius, out, syms.size()); });
    MRC_REQUIRE(std::equal(out.begin(), out.end(), syms.begin(), syms.end()),
                "optimized quant decode mismatch");
    rd.baseline_mb_s = mb(payload_bytes) / td_ref;
    rd.optimized_mb_s = mb(payload_bytes) / td_new;
    rows.push_back(rd);
  }

  {  // predictor+quantizer: forced-scalar rows vs runtime-dispatched SIMD.
    // Both sides run the *same* codec; only the dispatched kernels differ,
    // and the streams must stay byte-identical (the bit-identity contract).
    // The reps alternate scalar, dispatched, scalar, ... so a change in the
    // machine's speed mid-row lands on both sides alike.
    // The GRF generator needs power-of-two extents; round the scaled edge
    // down so every MRC_SCALE setting still produces a valid grid.
    const index_t want = scaled({256, 256, 256}).nx;
    index_t edge = 32;
    while (edge * 2 <= want) edge *= 2;
    const Dim3 pd{edge, edge, edge};
    const FieldF field = sim::gaussian_random_field(pd, 3.0, 11);
    const double eb = 1e-3;
    const std::size_t field_bytes =
        static_cast<std::size_t>(field.size()) * sizeof(float);
    std::printf("predict+quant field: %lldx%lldx%lld (%.1f MB), simd best=%s\n",
                static_cast<long long>(pd.nx), static_cast<long long>(pd.ny),
                static_cast<long long>(pd.nz), mb(field_bytes),
                simd::isa_name(simd::best_isa()));
    const auto pq_row = [&](const char* stage, const Compressor& codec) {
      Row r{.stage = stage};
      const simd::Isa prev = simd::active_isa();
      Bytes scalar_stream, simd_stream;
      double t_scalar = 1e300, t_simd = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        simd::force_isa(simd::Isa::scalar);
        t_scalar = std::min(t_scalar,
                            seconds([&] { scalar_stream = codec.compress(field, eb); }));
        simd::force_isa(simd::best_isa());
        t_simd = std::min(t_simd, seconds([&] { simd_stream = codec.compress(field, eb); }));
      }
      simd::force_isa(prev);
      MRC_REQUIRE(scalar_stream == simd_stream,
                  "SIMD predict+quant stream diverged from scalar");
      r.baseline_mb_s = mb(field_bytes) / t_scalar;
      r.optimized_mb_s = mb(field_bytes) / t_simd;
      rows.push_back(r);
    };
    pq_row("predict_quant_interp", InterpCompressor{});
    pq_row("predict_quant_lorenzo", LorenzoCompressor{});
  }

  {  // uq_normal_cdf: P(v < iso) for every voxel of an insitu-style timestep
    // (mini-Nyx seed 1 after one step, compress_adaptive + restore at
    // absolute eb 2.5e8, isovalue 2e9, the fitted model), one z-plane at a
    // time as crossing_probability fills its CDF planes. MB/s counts the
    // doubles written.
    sim::MiniNyx::Params np;
    np.dims = scaled({256, 256, 256});
    np.seed = 1;
    sim::MiniNyx nyx(np);
    nyx.step();
    const FieldF& orig = nyx.density();
    api::Options opt;
    opt.eb = 2.5e8;
    opt.eb_mode = api::EbMode::absolute;
    const FieldF dec = api::restore(api::compress_adaptive(orig, opt));
    const uq::ErrorModel model = uq::ErrorModel::fit(orig.span(), dec.span());
    const double iso = 2e9;
    const auto plane = static_cast<std::size_t>(dec.dims().nx * dec.dims().ny);
    const auto voxels = static_cast<std::size_t>(dec.size());
    const auto arg = [&](std::size_t i) {
      return (iso - (static_cast<double>(dec[static_cast<index_t>(i)]) + model.mean)) /
             model.sigma;
    };
    std::vector<double> ref(voxels), got(voxels);
    const double t_erfc = best_seconds([&] {
      for (std::size_t i = 0; i < voxels; ++i)
        ref[i] = 0.5 * std::erfc(-arg(i) / std::numbers::sqrt2);
    });
    const double t_row = best_seconds([&] {
      for (std::size_t z0 = 0; z0 < voxels; z0 += plane) {
        for (std::size_t i = z0; i < z0 + plane; ++i) got[i] = arg(i);
        uq::normal_cdf_row({got.data() + z0, plane});
      }
    });
    double worst = 0.0;
    for (std::size_t i = 0; i < voxels; ++i) worst = std::max(worst, std::fabs(got[i] - ref[i]));
    MRC_REQUIRE(worst <= std::ldexp(1.0, -51), "in-tree normal CDF strayed from std::erfc");
    std::printf("uq normal cdf: %zu voxels, sigma %.4g, max |dPhi| %.3g, isa %s\n", voxels,
                model.sigma, worst, simd::isa_name(simd::active_isa()));
    Row r{.stage = "uq_normal_cdf"};
    r.baseline_mb_s = mb(voxels * sizeof(double)) / t_erfc;
    r.optimized_mb_s = mb(voxels * sizeof(double)) / t_row;
    rows.push_back(r);
  }

  // The sharded rows read the machine as much as the code when the
  // scheduler does not give a 4-lane pool four CPUs; the smaller of the
  // usable-lane readings taken just before and just after them says whether
  // it did.
  double lanes_usable = usable_lanes(syms.size());
  {  // sharded entropy decode: frozen monolithic layout vs the v7 sharded
    // layout decoded on 1, 2 and 4 lanes. The baseline column is
    // the same monolithic single-thread figure for every row, so speedup
    // reads directly as "sharded at N lanes vs unsharded".
    const Bytes mono = encode_quant_codes(syms, radius);
    const Bytes sharded = encode_quant_codes_sharded(syms, radius, 16);
    MRC_REQUIRE(is_sharded_quant_stream(sharded),
                "sharded encode fell back to monolithic at bench scale");
    std::printf("sharded decode: %u shards, %.2f MB stream (mono %.2f MB)\n",
                quant_stream_shards(sharded), mb(sharded.size()), mb(mono.size()));
    AlignedVec<std::uint32_t> out;
    const double t_mono = best_seconds(
        [&] { decode_quant_codes_into(mono, radius, out, syms.size()); });
    MRC_REQUIRE(std::equal(out.begin(), out.end(), syms.begin(), syms.end()),
                "monolithic decode mismatch");
    const double mono_mb_s = mb(payload_bytes) / t_mono;
    for (const int lanes : {1, 2, 4}) {
      Row r{.stage = "sharded_decode_t" + std::to_string(lanes)};
      const double t = best_seconds(
          [&] { decode_quant_codes_into(sharded, radius, out, syms.size(), lanes); });
      MRC_REQUIRE(std::equal(out.begin(), out.end(), syms.begin(), syms.end()),
                  "sharded decode mismatch");
      r.baseline_mb_s = mono_mb_s;
      r.optimized_mb_s = mb(payload_bytes) / t;
      rows.push_back(r);
    }
  }
  lanes_usable = std::min(lanes_usable, usable_lanes(syms.size()));
  std::printf("usable lanes of a 4-lane pool: %.2f\n", lanes_usable);

  std::printf("\n%20s %16s %16s %9s\n", "stage", "baseline MB/s", "optimized MB/s",
              "speedup");
  for (const auto& r : rows)
    std::printf("%20s %16.1f %16.1f %8.2fx\n", r.stage.c_str(), r.baseline_mb_s,
                r.optimized_mb_s, r.speedup());

  FILE* json = std::fopen("BENCH_codec_hotpath.json", "w");
  MRC_REQUIRE(json != nullptr, "cannot write BENCH_codec_hotpath.json");
  std::fprintf(json, "{\n  \"bench\": \"codec_hotpath\",\n");
  std::fprintf(json, "  \"hardware_threads\": %d,\n", exec::hardware_threads());
  std::fprintf(json, "  \"usable_lanes\": %.2f,\n", lanes_usable);
  std::fprintf(json, "  \"simd_isa\": \"%s\",\n", simd::isa_name(simd::active_isa()));
  std::fprintf(json, "  \"symbols\": %zu,\n  \"radius\": %u,\n  \"results\": [\n",
               syms.size(), radius);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"stage\": \"%s\", \"baseline_mb_s\": %.1f, "
                 "\"optimized_mb_s\": %.1f, \"speedup\": %.2f}%s\n",
                 r.stage.c_str(), r.baseline_mb_s, r.optimized_mb_s, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_codec_hotpath.json (%zu rows)\n", rows.size());

  // >= 3x is the acceptance target; MRC_HOTPATH_MIN_SPEEDUP overrides it
  // (0 disables) for throttled or oversubscribed machines.
  double min_speedup = 3.0;
  if (const char* env = std::getenv("MRC_HOTPATH_MIN_SPEEDUP")) min_speedup = std::atof(env);
  MRC_REQUIRE(huffman_decode_speedup >= min_speedup,
              "huffman decode speedup below the acceptance target");
  return 0;
}
