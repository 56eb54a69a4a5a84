// bench_progressive_stream — what the progressive residual container (MRCR)
// buys over the two ways of streaming the same field today: the LOD pyramid
// (MRCP — coarse-first, but every refinement re-sends a whole level) and
// the uniform tiled container (MRCT — one answer, all bytes up front). All
// three are built from the same mini-Nyx density field at the same absolute
// error bound; MRCP/MRCT data goes through interp, and MRCR keeps interp
// for its coarsest data level while its residual levels use the codec
// api::build_progressive chooses per stream (quantize or lorenzo; see
// progressive::Config::resid_codec), which the stream line and the JSON
// record.
//
// Reported per container: total bytes at the fixed bound, bytes-to-first-
// answer (header + level table + the coarsest stream; the whole stream for
// tiled), and the PSNR-vs-bytes-streamed curve — after streaming the
// coarsest level and each refinement in turn, the PSNR of that
// reconstruction prolonged to the finest grid. The pyramid's refinements
// re-send full levels; MRCR sends only residual streams, which is where the
// byte advantage comes from.
//
// Results land in BENCH_progressive_stream.json. The acceptance gate is the
// container's core claim: the MRCR stream must be smaller than the MRCP
// pyramid at the same error bound — enforced with MRC_REQUIRE so CI fails
// if it regresses.

#include <cstdio>
#include <string>
#include <vector>

#include "api/mrc_api.h"
#include "bench_util.h"
#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "metrics/psnr.h"
#include "progressive/progressive.h"

using namespace mrc;

namespace {

struct Row {
  std::string container;          ///< "mrcr" | "mrcp" | "tiled"
  int level = 0;                  ///< finest level reached by the streamed bytes
  std::size_t cum_bytes = 0;      ///< bytes streamed to reach this level
  double psnr = 0.0;              ///< reconstruction prolonged to the finest grid
  std::size_t total_bytes = 0;    ///< whole stream
  std::size_t first_answer_bytes = 0;  ///< bytes until the first usable field
};

double psnr_at_finest(const FieldF& orig, const FieldF& level_recon) {
  if (level_recon.dims() == orig.dims()) return metrics::psnr(orig, level_recon);
  return metrics::psnr(orig, prolong_trilinear(level_recon, orig.dims()));
}

}  // namespace

int main() {
  const Dim3 dims = scaled({256, 256, 256});
  bench::print_title("progressive streaming: MRCR vs MRCP vs uniform tiled",
                     "multi-resolution streaming (paper SS IV)",
                     "mini-Nyx density, fixed eb, bytes-per-refinement");

  const FieldF f = sim::nyx_density(dims, /*seed=*/7);
  const api::Options opt = api::Options::parse("codec=interp,eb=1e-3,tile=16,threads=0");
  const double abs_eb = opt.absolute_eb(f);

  const Bytes mrcr = api::build_progressive(f, opt);
  const Bytes mrcp = api::build_pyramid(f, opt);
  const Bytes mrct = api::compress_tiled(f, opt);
  const std::string resid_codec = progressive::read_geometry(mrcr).codec;
  std::printf("streams (%s, abs_eb %.4g): mrcr %zu (residuals: %s), mrcp %zu, "
              "tiled %zu bytes\n\n",
              dims.str().c_str(), abs_eb, mrcr.size(), resid_codec.c_str(), mrcp.size(),
              mrct.size());

  std::vector<Row> rows;
  std::printf("%6s %6s %14s %12s %9s\n", "stream", "level", "dims", "cum_bytes",
              "psnr dB");

  // MRCR: coarsest stream first, then one *residual* stream per refinement.
  {
    const progressive::Index idx = progressive::read_geometry(mrcr);
    const int n = static_cast<int>(idx.levels.size());
    std::size_t cum = idx.payload_offset;
    const std::size_t first =
        idx.payload_offset + static_cast<std::size_t>(idx.levels.back().length);
    for (int l = n - 1; l >= 0; --l) {
      cum += static_cast<std::size_t>(idx.levels[static_cast<std::size_t>(l)].length);
      const FieldF recon = progressive::decompress_level(mrcr, l, /*threads=*/0);
      Row row{"mrcr", l, cum, psnr_at_finest(f, recon), mrcr.size(), first};
      std::printf("%6s %6d %14s %12zu %9.2f\n", row.container.c_str(), l,
                  recon.dims().str().c_str(), row.cum_bytes, row.psnr);
      rows.push_back(std::move(row));
    }
  }

  // MRCP: coarse-first too, but every refinement re-sends a whole level.
  {
    const pyramid::Index idx = pyramid::read_geometry(mrcp);
    const int n = static_cast<int>(idx.levels.size());
    std::size_t cum = idx.payload_offset;
    const std::size_t first =
        idx.payload_offset + static_cast<std::size_t>(idx.levels.back().length);
    for (int l = n - 1; l >= 0; --l) {
      cum += static_cast<std::size_t>(idx.levels[static_cast<std::size_t>(l)].length);
      const FieldF recon = pyramid::decompress_level(mrcp, l, /*threads=*/0);
      Row row{"mrcp", l, cum, psnr_at_finest(f, recon), mrcp.size(), first};
      std::printf("%6s %6d %14s %12zu %9.2f\n", row.container.c_str(), l,
                  recon.dims().str().c_str(), row.cum_bytes, row.psnr);
      rows.push_back(std::move(row));
    }
  }

  // Uniform tiled: no intermediate answer — all bytes before any samples.
  {
    const FieldF recon = tiled::decompress(mrct, /*threads=*/0);
    Row row{"tiled", 0, mrct.size(), metrics::psnr(f, recon), mrct.size(),
            mrct.size()};
    std::printf("%6s %6d %14s %12zu %9.2f\n", row.container.c_str(), 0,
                recon.dims().str().c_str(), row.cum_bytes, row.psnr);
    rows.push_back(std::move(row));
  }

  // The acceptance gate: residual refinements must undercut re-sent levels.
  MRC_REQUIRE(mrcr.size() < mrcp.size(),
              "progressive residual stream must undercut the pyramid at equal eb");
  std::printf("\nmrcr/mrcp total bytes: %.3f (must be < 1), first answer %zu of %zu "
              "total bytes\n",
              static_cast<double>(mrcr.size()) / static_cast<double>(mrcp.size()),
              rows.front().first_answer_bytes, mrcr.size());

  FILE* json = std::fopen("BENCH_progressive_stream.json", "w");
  MRC_REQUIRE(json != nullptr, "cannot write BENCH_progressive_stream.json");
  std::fprintf(json, "{\n  \"bench\": \"progressive_stream\",\n  \"dims\": \"%s\",\n",
               dims.str().c_str());
  std::fprintf(json, "  \"hardware_threads\": %d,\n", exec::hardware_threads());
  std::fprintf(json,
               "  \"codec\": \"interp\",\n  \"resid_codec\": \"%s\",\n"
               "  \"rel_eb\": 1e-3,\n",
               resid_codec.c_str());
  std::fprintf(json, "  \"abs_eb\": %.6g,\n", abs_eb);
  std::fprintf(json, "  \"brick\": %lld,\n", static_cast<long long>(opt.tile));
  std::fprintf(json, "  \"mrcr_bytes\": %zu,\n", mrcr.size());
  std::fprintf(json, "  \"mrcp_bytes\": %zu,\n", mrcp.size());
  std::fprintf(json, "  \"tiled_bytes\": %zu,\n", mrct.size());
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"container\": \"%s\", \"level\": %d, \"cum_bytes\": %zu, "
                 "\"psnr\": %.3f, \"total_bytes\": %zu, \"first_answer_bytes\": "
                 "%zu}%s\n",
                 r.container.c_str(), r.level, r.cum_bytes, r.psnr, r.total_bytes,
                 r.first_answer_bytes, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_progressive_stream.json (%zu rows)\n", rows.size());
  return 0;
}
