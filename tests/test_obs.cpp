// mrc::obs — the observability layer's own contracts: histogram quantile
// edge cases (empty, single sample, all-overflow, clamped q), registry
// get-or-create handle stability and snapshot consistency under 8-thread
// contention, trace-ring wraparound accounting, a traced tiled round trip
// containing spans from all three instrumented layers (codec stage,
// container brick, pool task), a traced MRCR build naming every step
// inside its level's span, the wire `metrics` frame (round trip,
// ServerStats reconciliation, malformed frames earning error frames), and
// the disabled mode recording nothing. Tests share a process under the
// ci.sh TSan pass, so every test works in deltas, uses test-unique metric
// names, and leaves the runtime switch the way it found it (off).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "compressors/registry.h"
#include "obs/obs.h"
#include "progressive/progressive.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "test_util.h"
#include "tiled/tiled.h"

namespace mrc {
namespace {

namespace wire = serve::wire;

/// Flips the runtime switch for one test and always restores "off".
struct ScopedEnable {
  ScopedEnable() { obs::set_enabled(true); }
  ~ScopedEnable() { obs::set_enabled(false); }
};

/// 24^3 interp tiled stream, brick 8 -> 27 bricks.
Bytes tiled_stream() {
  tiled::Config cfg;
  cfg.codec = "interp";
  cfg.brick = 8;
  cfg.threads = 2;
  const FieldF f = test::smooth_field({24, 24, 24});
  return tiled::compress(f, 1e-3 * f.value_range(), cfg);
}

serve::ServerConfig quiet() {
  serve::ServerConfig cfg;
  cfg.threads = 2;
  cfg.prefetch = false;  // deterministic cache counters
  return cfg;
}

// ---------------------------------------------------------------------------
// Histogram quantile edge cases.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, EmptyAnswersZeroForEveryQuantile) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 0u);
}

TEST(ObsHistogram, SingleSampleAnswersEveryQuantileWithItsBucket) {
  obs::Histogram h;
  h.record(7);  // bucket [4, 8) -> lower bound 4
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 7u);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 4u);

  obs::Histogram zero;
  zero.record(0);  // sub-unit bucket, lower bound 0 — but counted
  EXPECT_EQ(zero.count(), 1u);
  EXPECT_EQ(zero.quantile(1.0), 0u);
}

TEST(ObsHistogram, AllOverflowSamplesAnswerTheOverflowBucket) {
  obs::Histogram h;
  for (int i = 0; i < 3; ++i) h.record(std::uint64_t{1} << 60);
  const std::uint64_t overflow_lb = std::uint64_t{1}
                                    << (obs::Histogram::kBuckets - 2);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.quantile(q), overflow_lb);
  EXPECT_EQ(h.count(), 3u);
}

TEST(ObsHistogram, QuantilesClampAndStayMonotone) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));  // q clamps into [0, 1]
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
  EXPECT_EQ(h.quantile(0.0), 1u);    // first sample's bucket
  EXPECT_EQ(h.quantile(1.0), 512u);  // bucket holding 1000
  std::uint64_t prev = 0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), prev);
    prev = h.quantile(q);
  }
}

// ---------------------------------------------------------------------------
// Registry: handle identity and concurrent snapshot consistency.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, HandlesAreGetOrCreateAndAddressStable) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("obs.test.identity");
  obs::Counter& b = reg.counter("obs.test.identity");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("obs.test.identity2"));
  EXPECT_EQ(reg.counter_value("obs.test.never_created"), 0u);
  obs::Histogram& h = reg.histogram("obs.test.identity_hist");
  EXPECT_EQ(&h, &reg.histogram("obs.test.identity_hist"));
}

TEST(ObsRegistry, SnapshotsStayConsistentUnderEightThreadContention) {
  auto& reg = obs::Registry::global();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;
  const char* names[] = {"obs.test.contend_a", "obs.test.contend_b",
                         "obs.test.contend_c", "obs.test.contend_d"};
  std::uint64_t base[4];
  for (int i = 0; i < 4; ++i) base[i] = reg.counter_value(names[i]);

  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  std::thread reader([&] {
    // Snapshots taken while writers hammer: each of our counters must read
    // between its base and base + the total adds, and never go backwards.
    std::uint64_t prev[4] = {base[0], base[1], base[2], base[3]};
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = reg.counters();
      for (const auto& [name, value] : snap)
        for (int i = 0; i < 4; ++i)
          if (name == names[i]) {
            EXPECT_GE(value, prev[i]);
            EXPECT_LE(value, base[i] + kThreads * kAddsPerThread);
            prev[i] = value;
          }
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      // Every thread resolves its own handles — get-or-create must be safe
      // to race — then splits its adds across the four counters.
      obs::Counter* c[4];
      for (int i = 0; i < 4; ++i) c[i] = &reg.counter(names[i]);
      for (std::uint64_t k = 0; k < kAddsPerThread; ++k)
        c[(t + static_cast<int>(k)) % 4]->add(1);
    });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots.load(), 0);
  std::uint64_t total = 0;
  for (int i = 0; i < 4; ++i) total += reg.counter_value(names[i]) - base[i];
  EXPECT_EQ(total, std::uint64_t{kThreads} * kAddsPerThread);
}

// ---------------------------------------------------------------------------
// Trace ring: wraparound accounting, disabled mode, span content.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CodecStageCountersSplitEncodeFromDecode) {
  ScopedEnable on;
  auto& reg = obs::Registry::global();
  auto stages = [&](const std::string& dir) {
    std::array<std::uint64_t, 3> v{};
    const char* names[] = {"predict_quant", "entropy", "lossless"};
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = reg.counter("mrc.codec." + std::string(names[i]) + "." + dir + "_ns").value();
    return v;
  };
  const FieldF f = test::smooth_field({24, 24, 24});
  for (const auto& name : registry().names()) {
    SCOPED_TRACE(name);
    const auto codec = registry().make(name);
    const auto enc0 = stages("encode"), dec0 = stages("decode");
    const Bytes stream = codec->compress(f, 1e-3 * f.value_range());
    const auto enc1 = stages("encode");
    EXPECT_EQ(stages("decode"), dec0);
    EXPECT_GT(enc1[1], enc0[1]);  // every codec times an entropy stage
    EXPECT_EQ(codec->decompress(stream).dims(), f.dims());
    EXPECT_EQ(stages("encode"), enc1);
    EXPECT_GT(stages("decode")[1], dec0[1]);
  }
}

TEST(ObsTrace, RingWrapsKeepingNewestAndCountsDrops) {
  obs::reset_trace();
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < obs::kTraceCapacity + extra; ++i)
    obs::detail::record_span("obs.test.wrap", i, 1);
  const obs::TraceStats ts = obs::trace_stats();
  EXPECT_EQ(ts.recorded, obs::kTraceCapacity);
  EXPECT_EQ(ts.dropped, extra);
  obs::reset_trace();
  EXPECT_EQ(obs::trace_stats().recorded, 0u);
  EXPECT_EQ(obs::trace_stats().dropped, 0u);
}

TEST(ObsTrace, DisabledModeRecordsNoSpans) {
  obs::set_enabled(false);
  obs::reset_trace();
  {
    OBS_SPAN("obs.test.gated");
    obs::ScopedTimer timer("obs.test.timer_off");
    EXPECT_GE(timer.seconds(), 0.0);
    EXPECT_GE(timer.restart(), 0.0);  // timing still works with obs off
  }
  EXPECT_EQ(obs::trace_stats().recorded, 0u);
  EXPECT_NE(obs::trace_json().find("\"traceEvents\""), std::string::npos);
}

TEST(ObsTrace, ScopedTimerSectionsEmitNamedSpans) {
  ScopedEnable on;
  obs::reset_trace();
  {
    obs::ScopedTimer timer("obs.test.section_a");
    EXPECT_GE(timer.restart("obs.test.section_b"), 0.0);
  }  // destructor closes section_b
  EXPECT_EQ(obs::trace_stats().recorded, 2u);
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"obs.test.section_a\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.test.section_b\""), std::string::npos);
}

TEST(ObsTrace, TracedTiledRoundTripSpansAllThreeLayers) {
  ScopedEnable on;
  obs::reset_trace();
  const Bytes stream = tiled_stream();
  const FieldF back = tiled::decompress(stream, 2);
  EXPECT_EQ(back.dims(), (Dim3{24, 24, 24}));

  EXPECT_GT(obs::trace_stats().recorded, 0u);
  const std::string json = obs::trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  // One span from each instrumented layer: codec stage, container brick,
  // exec-pool task — the acceptance bar for a useful trace.
  EXPECT_NE(json.find("\"interp.predict_quant\""), std::string::npos);
  EXPECT_NE(json.find("\"tiled.brick_compress\""), std::string::npos);
  EXPECT_NE(json.find("\"tiled.brick_decode\""), std::string::npos);
  EXPECT_NE(json.find("\"exec."), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsTrace, TracedProgressiveBuildNamesEveryStep) {
  ScopedEnable on;
  obs::reset_trace();
  progressive::Config cfg;
  cfg.brick = 8;  // 40^3 -> 20^3 -> 10^3 -> 5^3: four levels
  cfg.threads = 2;
  const std::uint64_t trace = 0x16b0;
  auto ctx = std::make_shared<obs::RequestCtx>();
  ctx->trace = trace;
  Bytes stream;
  {
    const obs::RequestScope scope(ctx);
    stream = progressive::build(test::smooth_field({40, 40, 40}), 0.05, cfg);
  }
  const auto spans = obs::spans_for(trace);
  const int levels = static_cast<int>(progressive::read_index(stream).levels.size());
  ASSERT_EQ(levels, 4);

  // One restrict chain, then per level: the residual pass (the coarsest
  // level's is its range pass), its entropy, its bricks, and — between the
  // coarsest and the finest level — the fold of its decoded residual.
  std::map<std::string_view, int> count;
  for (const auto& e : spans) ++count[e.name];
  EXPECT_EQ(count["progressive.restrict"], 1);
  EXPECT_EQ(count["progressive.level_compress"], levels);
  EXPECT_EQ(count["progressive.residual"], levels);
  EXPECT_EQ(count["progressive.bin_entropy"], levels);
  EXPECT_EQ(count["progressive.fold"], levels - 2);
  EXPECT_GT(count["tiled.brick_compress"], 0);

  // The level spans cover their levels: every step nests in one, and so
  // does every pool lane outside the restrict chain (the LOD error's lanes
  // included).
  auto inside = [&](const obs::TraceEvent& e, std::string_view parent) {
    return std::any_of(spans.begin(), spans.end(), [&](const obs::TraceEvent& p) {
      return parent == p.name && p.t0_ns <= e.t0_ns &&
             e.t0_ns + e.dur_ns <= p.t0_ns + p.dur_ns;
    });
  };
  for (const auto& e : spans) {
    const std::string_view name(e.name);
    if (name == "progressive.residual" || name == "progressive.bin_entropy" ||
        name == "progressive.fold" || name == "tiled.brick_compress") {
      EXPECT_TRUE(inside(e, "progressive.level_compress")) << name;
    } else if (name == "exec.lane") {
      EXPECT_TRUE(inside(e, "progressive.restrict") ||
                  inside(e, "progressive.level_compress"));
    }
  }
  obs::reset_trace();
}

// ---------------------------------------------------------------------------
// Wire metrics frame: round trip, reconciliation, hostile input.
// ---------------------------------------------------------------------------

TEST(ObsWire, MetricsFrameRoundTripsAndReconcilesWithServerStats) {
  auto& reg = obs::Registry::global();
  const std::uint64_t base_lookups = reg.counter_value("mrc.cache.lookups");
  const std::uint64_t base_hits = reg.counter_value("mrc.cache.hits");
  const std::uint64_t base_requests = reg.counter_value("mrc.serve.requests");

  serve::Server srv(quiet());
  wire::Client client(
      [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); });
  const wire::OpenInfo info = client.open(tiled_stream(), "obs_ds");
  const tiled::Box box{{0, 0, 0}, {8, 8, 8}};
  (void)client.region(info.id, 0, box);
  (void)client.region(info.id, 0, box);  // warm reread -> one hit
  srv.wait_idle();

  // The registry mirrors tick at the same sites as the per-server counters,
  // so deltas across this (only active) server equal its absolute stats.
  const serve::ServerStats st = client.stats();
  EXPECT_EQ(reg.counter_value("mrc.cache.lookups") - base_lookups,
            st.cache.lookups);
  EXPECT_EQ(reg.counter_value("mrc.cache.hits") - base_hits, st.cache.hits);
  EXPECT_EQ(reg.counter_value("mrc.serve.requests") - base_requests, st.requests);
  EXPECT_GT(st.cache.hits, 0u);

  // The exposition fetched over the wire carries the same counters.
  const std::string text = client.metrics();
  EXPECT_NE(text.find("# TYPE mrc_cache_lookups counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mrc_serve_requests counter"), std::string::npos);
  EXPECT_NE(text.find("mrc_cache_hits "), std::string::npos);
}

TEST(ObsWire, MalformedMetricsFramesEarnErrorFrames) {
  serve::Server srv(quiet());

  // A well-formed metrics request has an empty body.
  const Bytes good = wire::make_frame(wire::Type::metrics);
  const Bytes good_reply = srv.handle_frame(good);
  EXPECT_EQ(wire::parse_frame(good_reply).type, wire::Type::metrics_ok);

  // Trailing bytes must die in the exhaustion check — error frame, never a
  // metrics_ok and never a crash.
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint8_t>(0x5a);
  const Bytes junk = wire::make_frame(wire::Type::metrics, body);
  const Bytes junk_reply = srv.handle_frame(junk);
  EXPECT_EQ(wire::parse_frame(junk_reply).type, wire::Type::error);

  // Truncations of the good frame all earn error frames too.
  for (std::size_t n = 0; n < good.size(); ++n) {
    const Bytes reply = srv.handle_frame(std::span<const std::byte>(good).first(n));
    EXPECT_EQ(wire::parse_frame(reply).type, wire::Type::error) << n;
  }
}

}  // namespace
}  // namespace mrc
