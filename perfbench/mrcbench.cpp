// mrcbench — the repository benchmark. Four closed-loop workloads drive the
// library's public API on seeded mini-Nyx density fields and check every
// output they get back:
//
//   insitu      one caller, 4-lane pool: api::compress_adaptive (ROI
//               extraction -> SZ3MR snapshot), api::restore, then the
//               uncertainty step (ErrorModel::fit + crossing_probability)
//   archive     one caller, 4-lane pool: api::build_progressive (MRCR) and
//               api::compress_tiled (MRCT) of one field, then full decodes
//               of both
//   viz-walk    two wire clients against one serve::Server (2-lane pool,
//               cache holding both streams, prefetch on); every step pans a
//               32^3 viewport a little and reads it twice: a plain region
//               read on MRCT, a progressive read on MRCR at level 0
//   viz-random  the same server, streams and read mix, but uniformly random
//               windows, a cache far below the decoded working set and
//               prefetch off
//
// End-to-end metrics, the same three on every workload:
//   op_p50_ms      median latency of one operation: an insitu timestep
//                  (compress, restore, uq), an archive field (both builds,
//                  both decodes), a viz step (region read + progressive read)
//   cpu_ms_per_op  process CPU time per operation, all threads; unlike wall
//                  time it does not grow when the host steals CPU or a read
//                  queues behind the other client
//   setup_s        median of three set-ups: the calls before the timed phase
//                  (insitu/archive: one warm-up operation; viz: both stream
//                  builds, Server::open and a warm-up pass of every client)
// Peak memory, ratio and PSNR are per-layer figures: peak RSS jumps by a
// brick cache or a codec scratch buffer depending on which pool thread ran
// what, and ratio/PSNR follow the seed; compare those on equal seeds.
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) splits each operation into spans timed around the public call
// of every layer it crosses — the spans live in this file, the library's own
// obs stays runtime-disabled in both kinds of run — and prints the per-layer
// metrics. Traced runs alternate traced and plain operations, so the
// difference between the two is the tracing overhead. The last stdout line
// is one JSON object {correct, attempted, failed, metrics}; the exit code is
// nonzero when any output check failed.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/simd_kernels.h"
#include "exec/thread_pool.h"
#include "metrics/psnr.h"
#include "obs/obs.h"
#include "serve/wire.h"
#include "simdata/mini_nyx.h"
#include "uncertainty/probabilistic_mc.h"

#ifndef MRC_BENCH_BUILD_TYPE
#define MRC_BENCH_BUILD_TYPE "unknown"
#endif

using namespace mrc;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kPoolLanes = 4;     // insitu + archive writer/decoder lanes
constexpr int kServerLanes = 2;   // viz server pool
constexpr int kClients = 2;       // viz wire clients
constexpr index_t kTile = 32;     // brick edge of both MRCT and MRCR
constexpr int kProgressiveLevels = 4;
constexpr index_t kWindow = 32;   // viz viewport edge
// Absolute error bound: a quarter of the mean density (MiniNyx normalizes
// the mean to 1e9). Unlike a bound relative to the value range, it does not
// follow each seed's heaviest halo, so the work per field and the ratio vary
// little from seed to seed.
constexpr double kEb = 2.5e8;
constexpr double kIsovalue = 2e9; // uq isovalue: twice the mean density
constexpr int kTimesteps = 2;     // distinct insitu inputs, cycled
constexpr int kSetupRepeats = 3;  // set-up runs per process; setup_s = median
constexpr int kMinOps = 3;        // per kind of operation, whatever --seconds says
constexpr std::uint64_t kHeldOutSeed = 9001;  // reserved for checking claims

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return since(t0);
}

/// Times one set-up repetition. Freed heap pages go back to the OS first, so
/// every repetition starts from the heap state of a fresh process instead of
/// whatever the previous one left behind.
template <class F>
double timed_setup(F&& fn) {
  malloc_trim(0);
  return timed(fn);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------------ spans --

/// Spans the benchmark records around each call into a layer's public
/// functions (traced runs only). Kept in memory; written as Chrome trace
/// JSON when the run ends. `op` groups the spans of one timed operation.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    int tid = 0;
    double t0_us = 0.0;
    double dur_us = 0.0;
  };

  void add(const std::string& name, std::uint64_t op, int tid, Clock::time_point t0,
           Clock::time_point t1) {
    const double start = std::chrono::duration<double, std::micro>(t0 - epoch_).count();
    const double dur = std::chrono::duration<double, std::micro>(t1 - t0).count();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, op, tid, start, dur});
  }

  /// Times fn() as span `name` of operation `op` and returns its result.
  template <class F>
  auto time(const char* name, std::uint64_t op, F&& fn) {
    const auto t0 = Clock::now();
    auto out = fn();
    add(name, op, 0, t0, Clock::now());
    return out;
  }

  /// Seconds of every `name` span, one entry per call.
  [[nodiscard]] std::vector<double> per_call(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.dur_us * 1e-6);
    return out;
  }

  /// Seconds of the spans named `names` summed per operation, one entry per
  /// operation, in operation order.
  [[nodiscard]] std::vector<double> per_op(std::initializer_list<std::string_view> names) const {
    std::map<std::uint64_t, double> acc;
    for (const Span& s : spans_)
      if (std::find(names.begin(), names.end(), s.name) != names.end())
        acc[s.op] += s.dur_us * 1e-6;
    std::vector<double> out;
    for (const auto& p : acc) out.push_back(p.second);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu}}%s\n",
                    s.name.c_str(), s.tid, s.t0_us, s.dur_us,
                    static_cast<unsigned long long>(s.op),
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Outcome of one workload run: end-to-end figures from plain operations,
/// per-layer figures from traced ones, and the output-check tally.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> op_s;         ///< plain operations
  std::vector<double> traced_op_s;  ///< traced operations (traced runs only)
  double cpu_s = 0.0;               ///< process CPU time of the timed phase
  double rss_mb = 0.0;              ///< peak RSS at the end of the timed phase
  double ratio = 0.0;
  double psnr_db = 0.0;
  std::vector<Metric> layers;       ///< workload-specific per-layer metrics

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void fail(const std::string& what) { check(false, what); }

  /// Called right after the timed phase: takes its peak memory, then times
  /// the set-up repetitions still missing. They run last so that their
  /// leftovers cannot raise the phase's peak memory.
  template <class F>
  void finish_setups(F&& setup) {
    rss_mb = peak_rss_mb();
    while (setup_s.size() < static_cast<std::size_t>(kSetupRepeats))
      setup_s.push_back(timed_setup(setup));
  }

  /// Records one timed operation [s0, s1).
  void record_op(bool traced, Clock::time_point s0, Clock::time_point s1) {
    (traced ? traced_op_s : op_s).push_back(std::chrono::duration<double>(s1 - s0).count());
  }

  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    layers.push_back({name, value, unit, samples});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  index_t n = 128;  ///< field edge (powers of two: the GRF needs them)
  std::string out_dir = ".";
};

// ----------------------------------------------------------------- checks --

bool same_bits(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * 4) == 0;
}

bool same_bits(const FieldD& a, const FieldD& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * 8) == 0;
}

/// `w` equals the `box` window of `full`, bit for bit.
bool window_equals(const FieldF& full, const tiled::Box& box, const FieldF& w) {
  const Dim3 e = box.extent();
  if (!(w.dims() == e)) return false;
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      if (std::memcmp(&w.at(0, y, z), &full.at(box.lo.x, box.lo.y + y, box.lo.z + z),
                      static_cast<std::size_t>(e.nx) * 4) != 0)
        return false;
  return true;
}

/// The float a codec stores can miss the bound by the rounding of the value
/// itself (progressive.h: "|delta_L| <= eb up to float rounding"), so the
/// checks allow eb plus one float epsilon of the largest magnitude.
double rounding_slack(const FieldF& f) {
  const auto [lo, hi] = f.min_max();
  return std::numeric_limits<float>::epsilon() *
         std::max(std::abs(static_cast<double>(lo)), std::abs(static_cast<double>(hi)));
}

bool within_eb(const FieldF& want, const FieldF& got, double eb) {
  return metrics::error_stats(want, got).max_abs_err <= eb + rounding_slack(want);
}

/// `got` is within eb of `want` on every cell `mask` marks.
bool masked_within(const FieldF& want, const MaskField& mask, const FieldF& got, double eb) {
  if (!(want.dims() == got.dims()) || !(want.dims() == mask.dims())) return false;
  const double bound = eb + rounding_slack(want);
  for (index_t i = 0; i < want.size(); ++i)
    if (mask[i] != 0 && std::abs(static_cast<double>(want[i]) - got[i]) > bound) return false;
  return true;
}

/// Every level of the restored hierarchy is within `eb` of the hierarchy
/// roi::extract_adaptive built, on the cells that level owns.
bool levels_within(const MultiResField& want, const MultiResField& got, double eb) {
  if (want.levels.size() != got.levels.size()) return false;
  for (std::size_t l = 0; l < want.levels.size(); ++l)
    if (!masked_within(want.levels[l].data, want.levels[l].mask, got.levels[l].data, eb))
      return false;
  return true;
}

bool probabilities_valid(const FieldD& p) {
  for (index_t i = 0; i < p.size(); ++i)
    if (!(p[i] >= 0.0 && p[i] <= 1.0)) return false;
  return true;
}

// ----------------------------------------------------------------- inputs --

/// Timesteps 1..count of a seeded MiniNyx run (input generation: untimed).
std::vector<FieldF> nyx_timesteps(index_t n, std::uint64_t seed, int count) {
  sim::MiniNyx::Params p;
  p.dims = {n, n, n};
  p.seed = seed;
  sim::MiniNyx nyx(p);
  std::vector<FieldF> out;
  for (int i = 0; i < count; ++i) {
    nyx.step();
    out.push_back(nyx.density());
  }
  return out;
}

double field_mb(const FieldF& f) { return static_cast<double>(f.size()) * 4.0 / 1e6; }

/// Keeps looping while the run's time is not used up or too few operations
/// of either kind (plain, traced) have been measured.
bool keep_going(const Run& r, Clock::time_point t0, const Args& a) {
  const bool enough = r.op_s.size() >= static_cast<std::size_t>(kMinOps) &&
                      (!a.trace || r.traced_op_s.size() >= static_cast<std::size_t>(kMinOps));
  return !enough || since(t0) < a.seconds;
}

/// Per-layer figures shared by every traced workload: the part of the traced
/// operations' time no layer span covers, and traced vs plain medians.
void common_layers(Run& r, const SpanLog& spans, const std::vector<std::string>& layer_spans) {
  double covered = 0.0;
  for (const std::string& name : layer_spans) covered += sum(spans.per_call(name));
  const double total = sum(spans.per_call("op"));
  r.layer("unattributed_frac", total > 0.0 ? std::max(0.0, 1.0 - covered / total) : 0.0, "frac",
          r.traced_op_s.size());
  r.layer("tracing_overhead_frac", median(r.traced_op_s) / median(r.op_s) - 1.0, "frac",
          r.traced_op_s.size() + r.op_s.size());
  r.layer("quality.ratio", r.ratio, "x", 1);
  r.layer("quality.psnr_db", r.psnr_db, "dB", 1);
  r.layer("process.peak_rss_mb", r.rss_mb, "MB", 1);
}

// ----------------------------------------------------------------- insitu --

struct InsituOut {
  Bytes snapshot;
  FieldF restored;
  FieldD probability;
};

Run run_insitu(const Args& a, SpanLog& spans) {
  Run r;
  const std::vector<FieldF> steps = nyx_timesteps(a.n, a.seed, kTimesteps);
  api::Options opt;
  opt.eb = kEb;
  opt.eb_mode = api::EbMode::absolute;
  opt.threads = kPoolLanes;

  const auto plain = [&](const FieldF& f) {
    InsituOut o;
    o.snapshot = api::compress_adaptive(f, opt);
    o.restored = api::restore(o.snapshot);
    const uq::ErrorModel m = uq::ErrorModel::fit(f.span(), o.restored.span());
    o.probability = uq::crossing_probability(o.restored, kIsovalue, m);
    return o;
  };
  // The same work split at every layer boundary the facade hides:
  // compress_adaptive = extract_adaptive + encode_snapshot, restore =
  // decode_snapshot + reconstruct_uniform.
  const auto traced = [&](const FieldF& f, std::uint64_t op) {
    InsituOut o;
    const MultiResField adaptive = spans.time("roi.extract", op, [&] {
      return roi::extract_adaptive(f, opt.roi_block, opt.roi_fraction);
    });
    o.snapshot = spans.time("core.encode_snapshot", op, [&] {
      return workflow::encode_snapshot(adaptive, opt.absolute_eb(f), opt.pipeline());
    });
    const MultiResField mr = spans.time("core.decode_snapshot", op, [&] {
      return workflow::decode_snapshot(o.snapshot);
    });
    o.restored = spans.time("grid.reconstruct_uniform", op,
                            [&] { return mr.reconstruct_uniform(); });
    const uq::ErrorModel m = spans.time("uncertainty.fit", op, [&] {
      return uq::ErrorModel::fit(f.span(), o.restored.span());
    });
    o.probability = spans.time("uncertainty.crossing_probability", op, [&] {
      return uq::crossing_probability(o.restored, kIsovalue, m);
    });
    return o;
  };

  const auto setup = [&] { (void)plain(steps[0]); };  // one warm-up iteration
  r.setup_s.push_back(timed_setup(setup));

  // References (untimed): every restored level within eb of the hierarchy
  // extract_adaptive built; later iterations must reproduce them bit for bit.
  std::vector<InsituOut> refs;
  double raw_bytes = 0.0, stream_bytes = 0.0;
  r.psnr_db = 1e300;
  for (const FieldF& f : steps) {
    InsituOut ref = plain(f);
    const MultiResField want = roi::extract_adaptive(f, opt.roi_block, opt.roi_fraction);
    r.check(levels_within(want, api::restore_adaptive(ref.snapshot), opt.absolute_eb(f)),
            "insitu: a restored level exceeds the error bound");
    // The uniform grid keeps the decoded full-resolution samples as they are.
    r.check(masked_within(f, want.levels[0].mask, ref.restored, opt.absolute_eb(f)),
            "insitu: the restored grid exceeds the error bound on full-resolution cells");
    r.check(probabilities_valid(ref.probability),
            "insitu: crossing probability outside [0, 1]");
    raw_bytes += field_mb(f);
    stream_bytes += static_cast<double>(ref.snapshot.size()) / 1e6;
    r.psnr_db = std::min(r.psnr_db, metrics::psnr(f, ref.restored));
    refs.push_back(std::move(ref));
  }
  r.ratio = raw_bytes / stream_bytes;

  const auto t0 = Clock::now();
  const double cpu0 = cpu_now();
  for (std::uint64_t op = 0; keep_going(r, t0, a); ++op) {
    // Pairs of operations share a timestep, so traced and plain operations
    // (odd and even in traced runs) see the same inputs.
    const std::size_t k = op / 2 % steps.size();
    const bool trace_op = a.trace && op % 2 == 1;
    InsituOut got;
    const auto s0 = Clock::now();
    try {
      got = trace_op ? traced(steps[k], op) : plain(steps[k]);
    } catch (const std::exception& e) {
      r.fail(std::string("insitu: ") + e.what());
      continue;
    }
    const auto s1 = Clock::now();
    r.record_op(trace_op, s0, s1);
    if (trace_op) spans.add("op", op, 0, s0, s1);
    // In traced operations this is the decomposition check: the split calls
    // must produce exactly the bytes of api::compress_adaptive.
    r.check(got.snapshot == refs[k].snapshot, "insitu: snapshot bytes differ");
    r.check(same_bits(got.restored, refs[k].restored), "insitu: restored field differs");
    r.check(same_bits(got.probability, refs[k].probability),
            "insitu: crossing probabilities differ");
  }
  r.cpu_s = cpu_now() - cpu0;
  r.finish_setups(setup);

  if (a.trace) {
    const double mb = field_mb(steps[0]);
    const std::size_t n_traced = r.traced_op_s.size();
    for (const char* name : {"roi.extract", "core.encode_snapshot", "core.decode_snapshot",
                             "grid.reconstruct_uniform", "uncertainty.fit",
                             "uncertainty.crossing_probability"})
      r.layer(std::string(name) + "_s", median(spans.per_op({name})), "s", n_traced);
    // Level blobs of the first timestep's snapshot (the layout is in
    // core/workflow.h: container header, block size, level count, blobs).
    ByteReader rd(refs[0].snapshot);
    (void)detail::read_header(rd, workflow::kSnapshotMagic, "snapshot");
    (void)rd.get_varint();
    const std::uint64_t levels = rd.get_varint();
    for (std::uint64_t l = 0; l < 2; ++l)
      r.layer("core.level_bytes.l" + std::to_string(l),
              l < levels ? static_cast<double>(rd.get_blob().size()) : 0.0, "B", 1);
    r.layer("path.compress_mb_s",
            mb / median(spans.per_op({"roi.extract", "core.encode_snapshot"})), "MB/s",
            n_traced);
    r.layer("path.decompress_mb_s",
            mb / median(spans.per_op({"core.decode_snapshot", "grid.reconstruct_uniform"})),
            "MB/s", n_traced);
    r.layer("path.uq_mcells_s",
            static_cast<double>(refs[0].probability.size()) / 1e6 /
                median(spans.per_op({"uncertainty.fit", "uncertainty.crossing_probability"})),
            "Mcells/s", n_traced);
    common_layers(r, spans,
                  {"roi.extract", "core.encode_snapshot", "core.decode_snapshot",
                   "grid.reconstruct_uniform", "uncertainty.fit",
                   "uncertainty.crossing_probability"});
  }
  return r;
}

// ---------------------------------------------------------------- archive --

api::Options container_options() {
  api::Options opt;
  opt.eb = kEb;
  opt.eb_mode = api::EbMode::absolute;
  opt.threads = kPoolLanes;
  opt.tile = kTile;
  opt.levels = kProgressiveLevels;
  return opt;
}

struct ArchiveOut {
  Bytes mrcr;
  Bytes mrct;
  FieldF mrcr_fine;  ///< progressive level 0
  FieldF mrct_fine;
};

ArchiveOut archive_plain(const FieldF& f, const api::Options& opt) {
  ArchiveOut o;
  o.mrcr = api::build_progressive(f, opt);
  o.mrct = api::compress_tiled(f, opt);
  o.mrcr_fine = progressive::decompress_level(o.mrcr, 0, opt.threads);
  o.mrct_fine = tiled::decompress(o.mrct, opt.threads);
  return o;
}

/// Full decodes of both streams are within eb of the field; sets the
/// quality figures every container workload reports.
void check_archive(Run& r, const FieldF& f, const ArchiveOut& o, double eb) {
  r.check(within_eb(f, o.mrcr_fine, eb), "MRCR level 0 exceeds the error bound");
  r.check(within_eb(f, o.mrct_fine, eb), "MRCT decode exceeds the error bound");
  r.ratio = 2.0 * field_mb(f) * 1e6 / static_cast<double>(o.mrcr.size() + o.mrct.size());
  r.psnr_db = std::min(metrics::psnr(f, o.mrcr_fine), metrics::psnr(f, o.mrct_fine));
}

/// Encode and decode rate of one codec over every brick of a tiled stream,
/// single lane: decode_tile with the registry codec the stream names, then
/// the registry codec `name` re-encoding the decoded bricks. Best of three.
std::pair<double, double> brick_probe(std::span<const std::byte> stream,
                                      const std::string& name, const api::Options& opt) {
  const tiled::Index idx = tiled::read_index(stream);
  const auto decoder = registry().make_for_magic(idx.codec_magic);
  CodecTuning tuning = opt.tuning();
  tuning.threads = 1;
  const auto encoder = registry().make(name, tuning);
  std::vector<FieldF> bricks(idx.tiles.size());
  double mb = 0.0, enc_s = 1e300, dec_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    dec_s = std::min(dec_s, timed([&] {
      for (std::size_t t = 0; t < bricks.size(); ++t)
        bricks[t] = tiled::decode_tile(idx, *decoder, stream, t);
    }));
    enc_s = std::min(enc_s, timed([&] {
      for (const FieldF& b : bricks) (void)encoder->compress(b, idx.eb);
    }));
  }
  for (const FieldF& b : bricks) mb += field_mb(b);
  return {mb / enc_s, mb / dec_s};
}

Run run_archive(const Args& a, SpanLog& spans) {
  Run r;
  const FieldF f = nyx_timesteps(a.n, a.seed, 1)[0];
  const api::Options opt = container_options();
  const double eb = opt.absolute_eb(f);

  const auto traced = [&](std::uint64_t op) {
    ArchiveOut o;
    o.mrcr = spans.time("progressive.build", op, [&] { return api::build_progressive(f, opt); });
    o.mrct = spans.time("tiled.compress", op, [&] { return api::compress_tiled(f, opt); });
    o.mrcr_fine = spans.time("progressive.decompress_level", op, [&] {
      return progressive::decompress_level(o.mrcr, 0, opt.threads);
    });
    o.mrct_fine = spans.time("tiled.decompress", op,
                             [&] { return tiled::decompress(o.mrct, opt.threads); });
    return o;
  };

  const auto setup = [&] { (void)archive_plain(f, opt); };  // one warm-up iteration
  r.setup_s.push_back(timed_setup(setup));
  const ArchiveOut ref = archive_plain(f, opt);
  check_archive(r, f, ref, eb);

  const auto t0 = Clock::now();
  const double cpu0 = cpu_now();
  for (std::uint64_t op = 0; keep_going(r, t0, a); ++op) {
    const bool trace_op = a.trace && op % 2 == 1;
    ArchiveOut got;
    const auto s0 = Clock::now();
    try {
      got = trace_op ? traced(op) : archive_plain(f, opt);
    } catch (const std::exception& e) {
      r.fail(std::string("archive: ") + e.what());
      continue;
    }
    const auto s1 = Clock::now();
    r.record_op(trace_op, s0, s1);
    if (trace_op) spans.add("op", op, 0, s0, s1);
    r.check(got.mrcr == ref.mrcr, "archive: MRCR bytes differ");
    r.check(got.mrct == ref.mrct, "archive: MRCT bytes differ");
    r.check(same_bits(got.mrcr_fine, ref.mrcr_fine), "archive: MRCR decode differs");
    r.check(same_bits(got.mrct_fine, ref.mrct_fine), "archive: MRCT decode differs");
  }
  r.cpu_s = cpu_now() - cpu0;
  r.finish_setups(setup);

  if (!a.trace) return r;
  const std::size_t n_traced = r.traced_op_s.size();
  const char* calls[] = {"progressive.build", "tiled.compress", "progressive.decompress_level",
                         "tiled.decompress"};
  for (const char* name : calls)
    r.layer(std::string(name) + "_s", median(spans.per_op({name})), "s", n_traced);

  const progressive::Index pidx = progressive::read_index(ref.mrcr);
  for (std::size_t l = 0; l < static_cast<std::size_t>(kProgressiveLevels); ++l)
    r.layer("progressive.level_bytes.l" + std::to_string(l),
            l < pidx.levels.size() ? static_cast<double>(pidx.levels[l].length) : 0.0, "B", 1);
  r.layer("tiled.bytes", static_cast<double>(ref.mrct.size()), "B", 1);

  // Pool scaling: the same MRCR build on one lane and on kPoolLanes.
  api::Options one_lane = opt;
  one_lane.threads = 1;
  std::vector<double> t1, tn;
  for (int rep = 0; rep < 3; ++rep) {
    Bytes s1, sn;
    t1.push_back(timed([&] { s1 = api::build_progressive(f, one_lane); }));
    tn.push_back(timed([&] { sn = api::build_progressive(f, opt); }));
    r.check(s1 == ref.mrcr && sn == ref.mrcr, "archive: MRCR bytes depend on the lane count");
  }
  r.layer("exec.scaling_eff", median(t1) / (kPoolLanes * median(tn)), "frac", 3);

  const auto [interp_enc, interp_dec] = brick_probe(ref.mrct, opt.codec, opt);
  const auto [lorenzo_enc, lorenzo_dec] =
      brick_probe(pidx.level_stream(ref.mrcr, 0), "lorenzo", opt);
  r.layer("compressors.interp.encode_mb_s", interp_enc, "MB/s", 3);
  r.layer("compressors.interp.decode_mb_s", interp_dec, "MB/s", 3);
  r.layer("compressors.lorenzo.encode_mb_s", lorenzo_enc, "MB/s", 3);
  r.layer("compressors.lorenzo.decode_mb_s", lorenzo_dec, "MB/s", 3);

  r.layer("path.compress_mb_s",
          2.0 * field_mb(f) / median(spans.per_op({"progressive.build", "tiled.compress"})),
          "MB/s", n_traced);
  r.layer("path.decompress_mb_s",
          2.0 * field_mb(f) /
              median(spans.per_op({"progressive.decompress_level", "tiled.decompress"})),
          "MB/s", n_traced);
  common_layers(r, spans, {calls[0], calls[1], calls[2], calls[3]});
  return r;
}

// -------------------------------------------------------------------- viz --

/// One wire client's state: its own Client + loopback Transport, its window
/// trace, and what it measured.
struct VizClient {
  int index = 0;
  Rng rng;
  std::uint64_t step = 0;
  bool traced_now = false;       ///< the current step records spans
  const char* frame_span = "";   ///< span name of the frame in flight
  std::uint64_t reply_bytes = 0;  ///< traced steps only
  std::uint64_t traced_reads = 0;
  std::vector<double> region_s, progressive_s;
  Run part;  ///< this client's op times + check tally, merged afterwards
};

struct VizServer {
  std::unique_ptr<serve::Server> server;
  std::uint32_t mrct = 0;
  std::uint32_t mrcr = 0;
};

Run run_viz(const Args& a, SpanLog& spans, bool walk) {
  Run r;
  const FieldF f = nyx_timesteps(a.n, a.seed, 1)[0];
  const api::Options opt = container_options();
  const index_t n = a.n;
  const index_t w = std::min(kWindow, n);

  serve::ServerConfig scfg;
  scfg.threads = kServerLanes;
  scfg.prefetch = walk;
  // walk: room for every decoded brick of both streams. random: 2 MiB at
  // 128^3, scaled with the volume: about a tenth of the decoded bricks of the
  // two streams, so roughly nine lookups in ten miss.
  const double volume = static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n) / (128.0 * 128.0 * 128.0);
  scfg.cache_bytes = walk ? std::size_t{512} << 20
                          : static_cast<std::size_t>(2.0 * 1024 * 1024 * volume);

  // Walk geometry: x advances in small steps, rows jump in y, then z.
  const index_t dx = 4, dyz = 16;
  const index_t px = (n - w) / dx + 1, pyz = (n - w) / dyz + 1;
  const std::uint64_t cycle = static_cast<std::uint64_t>(px * pyz * pyz);
  const auto next_window = [&](VizClient& c) {
    index_t x0 = 0, y0 = 0, z0 = 0;
    if (walk) {
      const auto s = static_cast<index_t>(
          (c.step + static_cast<std::uint64_t>(c.index) * cycle / kClients) % cycle);
      x0 = (s % px) * dx;
      y0 = (s / px % pyz) * dyz;
      z0 = (s / (px * pyz)) * dyz;
    } else {
      const auto span = static_cast<std::uint64_t>(n - w + 1);
      x0 = static_cast<index_t>(c.rng.uniform_index(span));
      y0 = static_cast<index_t>(c.rng.uniform_index(span));
      z0 = static_cast<index_t>(c.rng.uniform_index(span));
    }
    ++c.step;
    return tiled::Box{{x0, y0, z0}, {x0 + w, y0 + w, z0 + w}};
  };

  // Full decodes the reads are compared against (untimed).
  const ArchiveOut ref = archive_plain(f, opt);
  check_archive(r, f, ref, opt.absolute_eb(f));

  std::vector<VizClient> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].index = c;
    clients[c].rng = Rng(a.seed * 1000003u + static_cast<std::uint64_t>(c));
  }

  // One step: a plain region read on MRCT, then a progressive read of the
  // same window on MRCR; both checked against the reference decodes.
  const auto do_step = [&](VizServer& vs, serve::wire::Client& cl, VizClient& c,
                           bool timed_phase) {
    const tiled::Box box = next_window(c);
    const std::uint64_t op = (static_cast<std::uint64_t>(c.index) << 40) | c.step;
    c.traced_now = timed_phase && a.trace && c.step % 2 == 1;
    FieldF region;
    serve::wire::ProgressiveResult prog;
    const auto s0 = Clock::now();
    try {
      c.frame_span = "serve.handle_frame.region";
      region = cl.region(vs.mrct, 0, box);
      const auto s1 = Clock::now();
      c.frame_span = "serve.handle_frame.progressive";
      prog = cl.read_progressive(vs.mrcr, 0, box);
      const auto s2 = Clock::now();
      if (timed_phase) {
        c.region_s.push_back(std::chrono::duration<double>(s1 - s0).count());
        c.progressive_s.push_back(std::chrono::duration<double>(s2 - s1).count());
        c.part.record_op(c.traced_now, s0, s2);
      }
      if (c.traced_now) {
        spans.add("wire.client.region", op, c.index, s0, s1);
        spans.add("wire.client.progressive", op, c.index, s1, s2);
        spans.add("op", op, c.index, s0, s2);
        c.traced_reads += 2;
      }
    } catch (const std::exception& e) {
      c.part.fail(std::string("viz read: ") + e.what());
      return;
    }
    c.part.check(window_equals(ref.mrct_fine, box, region), "viz: region read differs");
    c.part.check(prog.complete() && prog.level == 0 && prog.box == box &&
                     window_equals(ref.mrcr_fine, box, prog.data),
                 "viz: progressive read differs or is incomplete");
  };

  const auto transport = [&](VizServer& vs, VizClient& c) -> serve::wire::Transport {
    return [&vs, &c, &spans](std::span<const std::byte> frame) {
      if (!c.traced_now) return vs.server->handle_frame(frame);
      const auto f0 = Clock::now();
      Bytes reply = vs.server->handle_frame(frame);
      const std::uint64_t op = (static_cast<std::uint64_t>(c.index) << 40) | c.step;
      spans.add(c.frame_span, op, c.index, f0, Clock::now());
      c.reply_bytes += reply.size();
      return reply;
    };
  };

  // Runs `body(client)` on kClients threads, one wire::Client each.
  const auto on_clients = [&](VizServer& vs, const auto& body) {
    std::vector<std::thread> crew;
    for (VizClient& c : clients)
      crew.emplace_back([&, cp = &c] {
        serve::wire::Client cl(transport(vs, *cp));
        body(cl, *cp);
      });
    for (std::thread& t : crew) t.join();
  };

  const std::uint64_t warm_steps = walk ? cycle : 64;
  const auto setup = [&] {
    VizServer vs;
    Bytes mrcr = api::build_progressive(f, opt);
    Bytes mrct = api::compress_tiled(f, opt);
    vs.server = std::make_unique<serve::Server>(scfg);
    vs.mrct = vs.server->open(std::move(mrct), "mrct");
    vs.mrcr = vs.server->open(std::move(mrcr), "mrcr");
    for (VizClient& c : clients) c.step = 0;
    on_clients(vs, [&](serve::wire::Client& cl, VizClient& c) {
      for (std::uint64_t s = 0; s < warm_steps; ++s) do_step(vs, cl, c, false);
    });
    vs.server->wait_idle();
    return vs;
  };

  VizServer vs;
  r.setup_s.push_back(timed_setup([&] { vs = setup(); }));

  obs::Counter& coalesced = obs::Registry::global().counter("mrc.cache.coalesced");
  const serve::ServerStats before = vs.server->stats();
  const std::uint64_t coalesced_before = coalesced.value();
  const double cpu0 = cpu_now();
  const auto t0 = Clock::now();
  on_clients(vs, [&](serve::wire::Client& cl, VizClient& c) {
    while (keep_going(c.part, t0, a)) do_step(vs, cl, c, true);
  });
  const double wall = since(t0);
  r.cpu_s = cpu_now() - cpu0;
  vs.server->wait_idle();
  const serve::ServerStats after = vs.server->stats();
  const std::uint64_t coalesced_after = coalesced.value();
  vs = VizServer{};  // tear the server down outside the set-up timing
  r.finish_setups([&] { vs = setup(); });

  std::vector<double> region_s, progressive_s;
  for (VizClient& c : clients) {
    r.attempted += c.part.attempted;
    r.failed += c.part.failed;
    r.op_s.insert(r.op_s.end(), c.part.op_s.begin(), c.part.op_s.end());
    r.traced_op_s.insert(r.traced_op_s.end(), c.part.traced_op_s.begin(),
                         c.part.traced_op_s.end());
    region_s.insert(region_s.end(), c.region_s.begin(), c.region_s.end());
    progressive_s.insert(progressive_s.end(), c.progressive_s.begin(), c.progressive_s.end());
  }
  if (!a.trace) return r;

  const auto self_us = [&](const char* kind) {
    const std::string client_span = std::string("wire.client.") + kind;
    const std::string server_span = std::string("serve.handle_frame.") + kind;
    std::vector<double> client = spans.per_op({client_span});
    const std::vector<double> server = spans.per_op({server_span});
    for (std::size_t i = 0; i < client.size() && i < server.size(); ++i)
      client[i] -= server[i];
    return median(client) * 1e6;
  };
  std::uint64_t traced_reads = 0, reply_bytes = 0;
  for (const VizClient& c : clients) {
    traced_reads += c.traced_reads;
    reply_bytes += c.reply_bytes;
  }
  const std::size_t n_traced = r.traced_op_s.size();
  for (const char* kind : {"region", "progressive"}) {
    const std::vector<double> frames = spans.per_call(std::string("serve.handle_frame.") + kind);
    r.layer(std::string("serve.handle_frame_us.") + kind, median(frames) * 1e6, "us",
            frames.size());
    r.layer(std::string("wire.client_self_us.") + kind, self_us(kind), "us", n_traced);
  }
  const double reads = static_cast<double>(region_s.size() + progressive_s.size());
  const double lookups = static_cast<double>(after.cache.lookups - before.cache.lookups);
  r.layer("serve.cache.hit_ratio",
          lookups > 0 ? static_cast<double>(after.cache.hits - before.cache.hits) / lookups : 0.0,
          "frac", static_cast<std::size_t>(lookups));
  const auto per_read = [&](const char* name, std::uint64_t delta) {
    r.layer(name, static_cast<double>(delta) / reads, "count/read",
            static_cast<std::size_t>(reads));
  };
  per_read("serve.cache.misses", after.cache.misses - before.cache.misses);
  per_read("serve.cache.evictions", after.cache.evictions - before.cache.evictions);
  per_read("serve.cache.coalesced", coalesced_after - coalesced_before);
  per_read("serve.cache.prefetched", after.cache.prefetched - before.cache.prefetched);
  per_read("serve.rejected", after.rejected - before.rejected);
  r.layer("wire.reply_bytes",
          traced_reads > 0 ? static_cast<double>(reply_bytes) / static_cast<double>(traced_reads)
                           : 0.0,
          "B/read", traced_reads);
  r.layer("path.region_p50_us", quantile(region_s, 0.5) * 1e6, "us", region_s.size());
  r.layer("path.region_p99_us", quantile(region_s, 0.99) * 1e6, "us", region_s.size());
  r.layer("path.progressive_p50_us", quantile(progressive_s, 0.5) * 1e6, "us",
          progressive_s.size());
  r.layer("path.progressive_p99_us", quantile(progressive_s, 0.99) * 1e6, "us",
          progressive_s.size());
  r.layer("path.reads_per_s", reads / wall, "1/s", static_cast<std::size_t>(reads));
  common_layers(r, spans, {"wire.client.region", "wire.client.progressive"});
  return r;
}

// ------------------------------------------------------------------ output --

/// Every per-layer metric, in BENCHMARK.json order, with its unit. A layer
/// a workload does not cross reports 0: no time, bytes or events there.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"roi.extract_s", "s"},
      {"core.encode_snapshot_s", "s"},
      {"core.decode_snapshot_s", "s"},
      {"grid.reconstruct_uniform_s", "s"},
      {"uncertainty.fit_s", "s"},
      {"uncertainty.crossing_probability_s", "s"},
      {"core.level_bytes.l0", "B"},
      {"core.level_bytes.l1", "B"},
      {"path.compress_mb_s", "MB/s"},
      {"path.decompress_mb_s", "MB/s"},
      {"path.uq_mcells_s", "Mcells/s"},
      {"progressive.build_s", "s"},
      {"tiled.compress_s", "s"},
      {"progressive.decompress_level_s", "s"},
      {"tiled.decompress_s", "s"},
      {"progressive.level_bytes.l0", "B"},
      {"progressive.level_bytes.l1", "B"},
      {"progressive.level_bytes.l2", "B"},
      {"progressive.level_bytes.l3", "B"},
      {"tiled.bytes", "B"},
      {"exec.scaling_eff", "frac"},
      {"compressors.interp.encode_mb_s", "MB/s"},
      {"compressors.interp.decode_mb_s", "MB/s"},
      {"compressors.lorenzo.encode_mb_s", "MB/s"},
      {"compressors.lorenzo.decode_mb_s", "MB/s"},
      {"serve.handle_frame_us.region", "us"},
      {"serve.handle_frame_us.progressive", "us"},
      {"wire.client_self_us.region", "us"},
      {"wire.client_self_us.progressive", "us"},
      {"serve.cache.hit_ratio", "frac"},
      {"serve.cache.misses", "count/read"},
      {"serve.cache.evictions", "count/read"},
      {"serve.cache.coalesced", "count/read"},
      {"serve.cache.prefetched", "count/read"},
      {"serve.rejected", "count/read"},
      {"wire.reply_bytes", "B/read"},
      {"path.region_p50_us", "us"},
      {"path.region_p99_us", "us"},
      {"path.progressive_p50_us", "us"},
      {"path.progressive_p99_us", "us"},
      {"path.reads_per_s", "1/s"},
      {"unattributed_frac", "frac"},
      {"tracing_overhead_frac", "frac"},
      {"quality.ratio", "x"},
      {"quality.psnr_db", "dB"},
      {"process.peak_rss_mb", "MB"},
  };
  return names;
}

std::vector<Metric> end_to_end(const Run& r) {
  return {
      {"op_p50_ms", median(r.op_s) * 1e3, "ms", r.op_s.size()},
      {"cpu_ms_per_op",
       r.cpu_s * 1e3 / static_cast<double>(r.op_s.size() + r.traced_op_s.size()), "ms",
       r.op_s.size()},
      {"setup_s", median(r.setup_s), "s", r.setup_s.size()},
  };
}

std::vector<Metric> per_layer(const Run& r) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_names()) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& l : r.layers)
      if (l.name == name) m = l;
    if (m.unit != unit) throw std::logic_error("unit mismatch for " + name);
    out.push_back(m);
  }
  for (const Metric& l : r.layers)
    if (std::none_of(out.begin(), out.end(), [&](const Metric& m) { return m.name == l.name; }))
      throw std::logic_error("per-layer metric missing from the list: " + l.name);
  return out;
}

std::string run_record(const Args& a) {
  const bool viz = a.workload.rfind("viz", 0) == 0;
  std::ostringstream o;
  o << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
    << ", \"held_out_seed\": " << kHeldOutSeed << ", \"seconds\": " << a.seconds
    << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"dims\": \"" << a.n << "x" << a.n << "x"
    << a.n << "\", \"eb_abs\": " << kEb << ", \"tile\": " << kTile
    << ", \"progressive_levels\": " << kProgressiveLevels
    << ", \"hardware_threads\": " << exec::hardware_threads() << ", \"isa\": \""
    << simd::isa_name(simd::active_isa()) << "\", \"pool_lanes\": "
    << (viz ? kServerLanes : kPoolLanes) << ", \"client_threads\": " << (viz ? kClients : 1)
    << ", \"window\": " << (viz ? kWindow : 0) << ", \"build_type\": \""
    << MRC_BENCH_BUILD_TYPE << "\", \"obs_enabled\": " << (obs::enabled() ? "true" : "false")
    << "}";
  return o.str();
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[320];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"", i ? ", " : "",
                  ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    out += buf;
    if (with_samples) out += ", \"samples\": " + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--dims") a.n = std::stoll(value());
    else if (k == "--out") a.out_dir = value();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.n < kWindow || (a.n & (a.n - 1)) != 0)
    throw std::invalid_argument("--dims must be a power of two >= 32");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  Run r;
  SpanLog spans;
  try {
    a = parse_args(argc, argv);
    obs::set_enabled(false);
    if (a.workload == "insitu") r = run_insitu(a, spans);
    else if (a.workload == "archive") r = run_archive(a, spans);
    else if (a.workload == "viz-walk") r = run_viz(a, spans, /*walk=*/true);
    else if (a.workload == "viz-random") r = run_viz(a, spans, /*walk=*/false);
    else throw std::invalid_argument("unknown workload '" + a.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrcbench: %s\n", e.what());
    return 2;
  }

  const std::vector<Metric> ms = a.trace ? per_layer(r) : end_to_end(r);
  const std::string record = run_record(a);
  const std::string stem = a.out_dir + "/" + a.workload + "_seed" + std::to_string(a.seed) +
                           (a.trace ? "_trace" : "");
  if (a.trace) spans.write_json(stem + "_spans.json");
  std::ofstream(stem + "_record.json")
      << "{\"record\": " << record << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"spans\": " << spans.size()
      << ", \"metrics\": " << metrics_json(ms, true) << "}\n";

  std::printf("record %s\n", record.c_str());
  for (const Metric& m : ms)
    std::printf("%-12s %-36s %16.6g %-10s n=%zu\n", a.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics_json(ms, false).c_str());
  return correct ? 0 : 1;
}
