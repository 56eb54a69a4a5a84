// Reproduces Table IX: execution-time breakdown of the post-processing
// pipeline on S3D for ZFP(OpenMP), SZ2(OpenMP) and SZ2(serial) at
// small/mid/large CR. Columns: (1) I/O, (2) comp+decomp, (3) sample+model,
// (4) process, and the relative overhead (c3+c4)/(c1+c2). Paper: ~2.7-3.7%
// overhead with OpenMP codecs, ~1.2-1.3% with serial SZ2.
//
// Micro-benchmarks of the two added stages also run under google-benchmark
// so per-stage throughput is tracked with proper repetition statistics.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "obs/obs.h"
#include "compressors/registry.h"
#include "exec/thread_pool.h"
#include "io/raw_io.h"
#include "postproc/bezier.h"

using namespace mrc;

namespace {

struct StageTimes {
  double io = 0, comp = 0, sample = 0, process = 0;
};

StageTimes run_pipeline(const FieldF& f, const Compressor& comp, double eb,
                        index_t pp_block, std::span<const double> candidates,
                        const std::string& tmpdir) {
  StageTimes t;
  const std::string in_path = tmpdir + "/mrc_t9_in.bin";
  const std::string out_path = tmpdir + "/mrc_t9_out.bin";
  io::write_raw(f, in_path);  // not timed: the original workflow starts by reading

  obs::ScopedTimer w("bench.io_read");
  const FieldF loaded = io::read_raw(in_path);
  t.io += w.seconds();

  w.restart("bench.compress_roundtrip");
  const auto stream = comp.compress(loaded, eb);
  const FieldF dec = comp.decompress(stream);
  t.comp = w.seconds();

  w.restart("bench.sample_tune");
  const auto plan = postproc::default_sampling(f.dims(), pp_block);
  const auto samples = postproc::draw_sample_blocks(loaded, plan.block_edge, plan.count, 42);
  const auto tuned = postproc::tune_intensity(samples, comp, eb, pp_block, candidates);
  t.sample = w.seconds();

  w.restart("bench.postprocess");
  const FieldF post = postproc::bezier_postprocess(
      dec, {pp_block, eb, tuned.ax, tuned.ay, tuned.az});
  t.process = w.seconds();

  w.restart("bench.io_write");
  io::write_raw(post, out_path);
  t.io += w.seconds();

  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return t;
}

const FieldF& s3d() {
  static const FieldF f = sim::s3d_flame(bench::s3d_dims(), 29);
  return f;
}

void BM_BezierProcess(benchmark::State& state) {
  const FieldF& f = s3d();
  for (auto _ : state) {
    auto out = postproc::bezier_postprocess(f, {4, 1.0, 0.02, 0.02, 0.02});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * f.size() * 4);
}
BENCHMARK(BM_BezierProcess)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_SampleAndModel(benchmark::State& state) {
  const FieldF& f = s3d();
  const auto comp_ptr = registry().make("zfpx");
  const Compressor& comp = *comp_ptr;
  const double eb = f.value_range() * 1e-3;
  for (auto _ : state) {
    const auto plan = postproc::default_sampling(f.dims(), 4);
    const auto samples = postproc::draw_sample_blocks(f, plan.block_edge, plan.count, 1);
    auto tuned =
        postproc::tune_intensity(samples, comp, eb, 4, postproc::zfp_candidates());
    benchmark::DoNotOptimize(tuned.ax);
  }
}
BENCHMARK(BM_SampleAndModel)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  bench::print_title("Table IX — post-processing overhead on S3D", "TABLE IX",
                     "I/O + (de)compression vs sample/model + process");

  const FieldF& f = s3d();
  const double range = f.value_range();
  const std::string tmpdir = std::filesystem::temp_directory_path().string();

  CodecTuning parallel_tuning;
  parallel_tuning.threads = std::max(1, exec::hardware_threads() * 2);
  const auto zfp_omp = registry().make("zfpx", parallel_tuning);
  const auto sz2_omp = registry().make("lorenzo", parallel_tuning);
  const auto sz2_serial = registry().make("lorenzo");

  std::printf("%-14s %-7s %7s %9s %9s %9s %9s %9s\n", "codec", "CR", "1.I/O",
              "2.Comp", "3.Sample", "4.Proc", "Ori(1+2)", "Ovh(3+4)/");
  for (const auto& [cname, comp, pp_block, candidates] :
       std::initializer_list<std::tuple<const char*, const Compressor*, index_t,
                                        std::vector<double>>>{
           {"ZFP (OpenMP)", zfp_omp.get(), 4, postproc::zfp_candidates()},
           {"SZ2 (OpenMP)", sz2_omp.get(), 6, postproc::sz_candidates()},
           {"SZ2 (serial)", sz2_serial.get(), 6, postproc::sz_candidates()}}) {
    for (const auto& [rel, label] :
         std::initializer_list<std::pair<double, const char*>>{
             {3e-3, "small"}, {8e-4, "mid"}, {2e-4, "large"}}) {
      const double eb = range * rel;
      const auto t = run_pipeline(f, *comp, eb, pp_block, candidates, tmpdir);
      const double ori = t.io + t.comp;
      const double extra = t.sample + t.process;
      std::printf("%-14s %-7s %7.3f %9.3f %9.3f %9.3f %9.3f %8.1f%%\n", cname, label,
                  t.io, t.comp, t.sample, t.process, ori, 100.0 * extra / ori);
    }
  }
  std::printf("\npaper: ~2.7-3.7%% overhead (OpenMP codecs), ~1.2-1.3%% (serial SZ2).\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
