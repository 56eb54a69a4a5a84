// bench_tiled_scaling — tiled-container throughput scaling: sweeps exec-pool
// thread count (1 -> hardware, and through 4 even on smaller machines so the
// 1-vs-4-thread speedup is always in the data) and brick size on a 256^3
// Nyx-like field (paper-scale 512^3 under the default MRC_SCALE=50), timing
// parallel brick compression, full parallel decompression, and a
// brick-boundary-crossing read_region with its decode counters. Each row is
// the per-stage median of three passes after one untimed warm-up per brick
// size; there is no scaling bar, since a bar would read where the scheduler
// places the process.
//
// Besides the printed table, results land in BENCH_tiled_scaling.json
// (threads, brick, MB/s, ratio) so the perf trajectory across PRs has data
// points.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/obs.h"
#include "exec/thread_pool.h"
#include "tiled/tiled.h"

using namespace mrc;

namespace {

struct Row {
  int threads = 0;       // requested Config::threads value
  int pool_threads = 0;  // actual exec-pool lane count that value resolves to
  index_t brick = 0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double region_s = 0.0;
  double ratio = 0.0;
  std::size_t region_tiles = 0;
  std::size_t total_tiles = 0;
};

double mb_per_s(index_t values, double seconds) {
  const double mb = static_cast<double>(values) * sizeof(float) / (1024.0 * 1024.0);
  return seconds > 0.0 ? mb / seconds : 0.0;
}

}  // namespace

int main() {
  const Dim3 dims = bench::nyx_dims();  // 512^3 paper-scale -> 256^3 default
  bench::print_title("tiled container: thread/brick scaling",
                     "new subsystem (no paper figure)", "Nyx-like density");

  const FieldF f = sim::nyx_density(dims, /*seed=*/7);
  const double abs_eb = 1e-3 * f.value_range();
  std::printf("hardware threads: %d%s\n", exec::hardware_threads(),
              exec::hardware_threads() < 4
                  ? "  (thread rows beyond this measure pool overhead, not scaling)"
                  : "");

  std::vector<int> threads{1, 2, 4};
  for (int t = 8; t <= exec::hardware_threads(); t *= 2) threads.push_back(t);
  if (const int hw = exec::hardware_threads();
      hw > 4 && std::find(threads.begin(), threads.end(), hw) == threads.end())
    threads.push_back(hw);

  // A centred ROI crossing brick boundaries on every axis, ~1/8 the volume.
  const tiled::Box roi{{dims.nx / 4, dims.ny / 4, dims.nz / 4},
                       {dims.nx / 4 + dims.nx / 2, dims.ny / 4 + dims.ny / 2,
                        dims.nz / 4 + dims.nz / 2}};

  // One timed pass of every stage at (brick, t), with its bit-identity
  // checks: the region read decodes only the intersecting bricks and equals
  // the same window of the full decode.
  const auto run_once = [&](index_t brick, int t) {
    tiled::Config cfg;
    cfg.codec = "interp";
    cfg.brick = brick;
    cfg.threads = t;

    Row row;
    row.threads = t;
    row.pool_threads = t == 0 ? exec::hardware_threads() : t;
    row.brick = brick;

    obs::ScopedTimer timer("bench.tiled_compress");
    const Bytes stream = tiled::compress(f, abs_eb, cfg);
    row.compress_s = timer.seconds();
    row.ratio = compression_ratio(f.size(), stream.size());

    timer.restart("bench.tiled_decompress");
    const FieldF back = tiled::decompress(stream, t);
    row.decompress_s = timer.seconds();
    MRC_REQUIRE(back.dims() == dims, "tiled round trip changed extents");

    timer.restart("bench.tiled_read_region");
    const auto rr = tiled::read_region(stream, roi, t);
    row.region_s = timer.seconds();
    row.region_tiles = rr.tiles_decoded;
    row.total_tiles = rr.tiles_total;
    const auto expected_tiles = static_cast<std::size_t>(
        (ceil_div(roi.hi.x, brick) - roi.lo.x / brick) *
        (ceil_div(roi.hi.y, brick) - roi.lo.y / brick) *
        (ceil_div(roi.hi.z, brick) - roi.lo.z / brick));
    MRC_REQUIRE(rr.tiles_decoded == expected_tiles,
                "region read decoded a non-intersecting brick");
    for (index_t z = 0; z < rr.data.dims().nz; ++z)
      for (index_t y = 0; y < rr.data.dims().ny; ++y)
        for (index_t x = 0; x < rr.data.dims().nx; ++x)
          MRC_REQUIRE(rr.data.at(x, y, z) ==
                          back.at(roi.lo.x + x, roi.lo.y + y, roi.lo.z + z),
                      "region read is not bit-identical to the full decode");
    return row;
  };
  const auto median3 = [](double a, double b, double c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };

  // Each row is the per-stage median of kReps passes, after one untimed
  // warm-up per brick size, so a row compares lane counts rather than
  // first-touch and pool start-up costs or one noisy pass.
  constexpr int kReps = 3;
  std::vector<Row> rows;
  std::printf("%8s %6s %14s %14s %12s %8s %14s\n", "threads", "brick", "compress MB/s",
              "decomp MB/s", "region MB/s", "CR", "bricks hit");
  for (const index_t brick : {index_t{32}, index_t{64}}) {
    (void)run_once(brick, threads.back());
    for (const int t : threads) {
      Row reps[kReps];
      for (Row& r : reps) r = run_once(brick, t);
      Row row = reps[0];
      row.compress_s = median3(reps[0].compress_s, reps[1].compress_s, reps[2].compress_s);
      row.decompress_s =
          median3(reps[0].decompress_s, reps[1].decompress_s, reps[2].decompress_s);
      row.region_s = median3(reps[0].region_s, reps[1].region_s, reps[2].region_s);
      rows.push_back(row);
      std::printf("%8d %6lld %14.1f %14.1f %12.1f %8.1f %9zu/%zu\n", t,
                  static_cast<long long>(brick), mb_per_s(f.size(), row.compress_s),
                  mb_per_s(f.size(), row.decompress_s),
                  mb_per_s(roi.extent().size(), row.region_s), row.ratio,
                  row.region_tiles, row.total_tiles);
    }
  }

  // Speedup summary against the 1-thread baseline of each brick size.
  for (const index_t brick : {index_t{32}, index_t{64}}) {
    const auto base = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return r.brick == brick && r.threads == 1;
    });
    for (const auto& r : rows)
      if (r.brick == brick && r.threads == 4)
        std::printf("brick %lld: 4-thread compress speedup %.2fx\n",
                    static_cast<long long>(brick), base->compress_s / r.compress_s);
  }

  FILE* json = std::fopen("BENCH_tiled_scaling.json", "w");
  MRC_REQUIRE(json != nullptr, "cannot write BENCH_tiled_scaling.json");
  std::fprintf(json, "{\n  \"bench\": \"tiled_scaling\",\n  \"dims\": \"%s\",\n",
               dims.str().c_str());
  std::fprintf(json, "  \"hardware_threads\": %d,\n", exec::hardware_threads());
  std::fprintf(json, "  \"codec\": \"interp\",\n  \"rel_eb\": 1e-3,\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"pool_threads\": %d, \"brick\": %lld, "
                 "\"compress_mb_s\": %.1f, "
                 "\"decompress_mb_s\": %.1f, \"region_mb_s\": %.1f, \"ratio\": %.2f, "
                 "\"region_tiles\": %zu, \"total_tiles\": %zu}%s\n",
                 r.threads, r.pool_threads, static_cast<long long>(r.brick),
                 mb_per_s(f.size(), r.compress_s), mb_per_s(f.size(), r.decompress_s),
                 mb_per_s(roi.extent().size(), r.region_s), r.ratio, r.region_tiles,
                 r.total_tiles, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_tiled_scaling.json (%zu rows)\n", rows.size());
  return 0;
}
