#pragma once

// Dependency-free observability: one process-wide registry of named
// counters / gauges / log2 histograms, plus span-based tracing with a
// chrome://tracing (Perfetto) JSON exporter. Everything the codecs, the
// containers, the exec pool, the brick cache and the serve tier report
// flows through here, so every later perf PR measures with the same ruler.
//
// Cost model, enforced by bench_obs_overhead:
//
//   * compile-time off  — build with -DMRC_OBS=OFF (defines MRC_OBS_DISABLED);
//     enabled() folds to `false` and every gated site dead-codes away.
//   * runtime off       — the default at process start. One relaxed atomic
//     load + branch per span; no clock reads, no ring-buffer traffic.
//     Event counters that feed the serve stats surface (cache hits, request
//     admissions, brick counts) still tick — they are single relaxed
//     fetch_adds on cache lines that are already being written under the
//     same locks, and keeping them unconditional is what makes the wire
//     `metrics` frame reconcile exactly with ServerStats.
//   * enabled           — spans read the clock twice and push one 40-byte
//     event (name, times, request trace id) into a per-thread ring buffer
//     (per-buffer mutex, uncontended on the hot path, so the exporter can
//     snapshot live buffers TSan-clean).
//
// Independent of the kill switch, the serve tier's *request context*
// (RequestCtx below) and the flight recorder (obs/flight.h) are always on:
// they cost O(1) relaxed writes per served request, not per span.
//
// Registry handles have stable addresses for the life of the process, so
// instrumentation sites cache them in function-local statics and the hot
// path never touches the registry mutex.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mrc::obs {

#ifdef MRC_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when observability is compiled in AND runtime-enabled. One relaxed
/// load; constant false under MRC_OBS_DISABLED so gated sites vanish.
[[nodiscard]] inline bool enabled() {
  if constexpr (!kCompiledIn) return false;
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime kill switch; a no-op (stays off) when compiled out.
void set_enabled(bool on);

/// Nanoseconds since an arbitrary process-local epoch (steady clock).
[[nodiscard]] std::uint64_t now_ns();

/// Monotonic event counter. Relaxed fetch_add; safe from any thread.
class Counter {
 public:
  void add(std::uint64_t v = 1) { v_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depths, bytes held).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Streaming log2-bucket histogram (the serve tier's request-latency
/// histogram, among others): fixed power-of-two buckets with relaxed atomic
/// counters, so every sample records in O(1) with no lock and no
/// allocation, and quantiles are answered from a snapshot of the bucket
/// counts. Quantile values are bucket lower bounds, so they are monotone in
/// q (p50 <= p99 always) and accurate to within the 2x bucket width. The
/// unit is the caller's (the serve tier records microseconds).
class Histogram {
 public:
  /// Bucket 0 holds sub-unit samples; bucket i >= 1 holds [2^(i-1), 2^i).
  /// 2^46 us ~ 2.2 years caps the range; larger samples land in the last
  /// (overflow) bucket.
  static constexpr int kBuckets = 48;

  void record(std::uint64_t v) {
    counts_[static_cast<std::size_t>(bucket(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
    return n;
  }

  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// The q-quantile as the lower bound of the bucket holding that rank; 0
  /// when no samples have been recorded. q is clamped to [0, 1]; q=0 asks
  /// for the first sample's bucket and q=1 for the last's, and a rank is
  /// always at least 1, so a single-sample histogram answers every q with
  /// that sample's bucket and an all-overflow histogram answers with the
  /// overflow bucket's lower bound.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    std::array<std::uint64_t, kBuckets> snap{};
    std::uint64_t total = 0;
    for (int i = 0; i < kBuckets; ++i) {
      snap[static_cast<std::size_t>(i)] =
          counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      total += snap[static_cast<std::size_t>(i)];
    }
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double want = q * static_cast<double>(total);
    std::uint64_t rank = static_cast<std::uint64_t>(want);
    if (static_cast<double>(rank) < want) ++rank;  // ceil
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += snap[static_cast<std::size_t>(i)];
      if (seen >= rank) return lower_bound(i);
    }
    return lower_bound(kBuckets - 1);
  }

  /// Snapshot of the raw per-bucket counters (index = internal bucket id;
  /// see bucket_upper for each bucket's value range). Feeds the Prometheus
  /// cumulative `_bucket{le=...}` exposition and tests.
  [[nodiscard]] std::array<std::uint64_t, kBuckets> bucket_counts() const {
    std::array<std::uint64_t, kBuckets> out{};
    for (int i = 0; i < kBuckets; ++i)
      out[static_cast<std::size_t>(i)] =
          counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    return out;
  }

  /// Largest sample value bucket `b` holds, inclusive: 0 for bucket 0,
  /// 2^b - 1 for the log2 buckets. The last bucket is the overflow bucket —
  /// render it as le="+Inf", not as this finite bound.
  [[nodiscard]] static std::uint64_t bucket_upper(int b) {
    return b <= 0 ? 0 : (std::uint64_t{1} << b) - 1;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  static int bucket(std::uint64_t v) {
    if (v == 0) return 0;
    const int b = 64 - std::countl_zero(v);  // 1 -> 1, 2..3 -> 2, ...
    return b >= kBuckets ? kBuckets - 1 : b;
  }

  static std::uint64_t lower_bound(int bucket) {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Histogram snapshot row for render_text / tests.
struct HistogramView {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
};

/// Process-wide name -> instrument map. Handles returned by counter() /
/// gauge() / histogram() are get-or-create and address-stable forever, so
/// call sites hold `static Counter& c = Registry::global().counter(...)`
/// and pay the mutex once per site per process. reset() zeroes values in
/// place (addresses survive) — test isolation, not deregistration.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of a named counter, 0 when it was never created.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> gauges() const;
  [[nodiscard]] std::vector<HistogramView> histograms() const;

  /// Prometheus-style text exposition: names with '.' mapped to '_',
  /// counters as `# TYPE <n> counter`, gauges as gauge, histograms as real
  /// `histogram` exposition — cumulative `_bucket{le="..."}` lines over the
  /// log2 buckets (sparse: only buckets that hold samples, plus the +Inf
  /// line) followed by `_sum` and `_count`.
  [[nodiscard]] std::string render_text() const;

  void reset();

 private:
  Registry() = default;

  template <typename T>
  using Map = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

  mutable std::mutex mu_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> hists_;
};

/// Convenience: Registry::global().render_text().
[[nodiscard]] std::string render_text();

// -- Request context --------------------------------------------------------

/// Per-request state threaded from the serve tier through the exec pool and
/// the brick cache: the client-generated trace id plus the per-request
/// counters the flight recorder reports. Shared (shared_ptr) between the
/// request thread and every pool task it spawns, so the counters are relaxed
/// atomics. Always compiled in — the flight recorder needs it with obs
/// disabled — and always cheap: installing a scope is two shared_ptr moves.
struct RequestCtx {
  std::uint64_t trace = 0;  ///< client-generated id; 0 = untraced request
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> queue_wait_ns{0};  ///< demand-lane queue wait
};
using RequestCtxPtr = std::shared_ptr<RequestCtx>;

/// The calling thread's current request context (null outside any request).
[[nodiscard]] const RequestCtxPtr& current_request();

/// Shorthand: current_request()'s trace id, 0 when there is none.
[[nodiscard]] std::uint64_t current_trace();

/// RAII installer for a request context on this thread; restores the
/// previous one (usually null) on destruction. The exec pool wraps every
/// posted task in one of these so context survives both priority lanes; a
/// null ctx clears the slot (workers start clear anyway).
class RequestScope {
 public:
  explicit RequestScope(RequestCtxPtr ctx);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  RequestCtxPtr prev_;
};

// -- Tracing ----------------------------------------------------------------

/// One closed span; name must be a string literal (stored by pointer).
/// `trace` is the owning request's id (captured from the thread's current
/// RequestCtx at record time); `ref` links a span to *another* request — the
/// brick cache sets it when a decode is adopted across requests, recording
/// both the owning and the adopting trace id on one event.
struct TraceEvent {
  const char* name;
  std::uint64_t t0_ns;
  std::uint64_t dur_ns;
  std::uint64_t trace;
  std::uint64_t ref;
};

/// Per-thread ring capacity: newest events win once a thread wraps.
inline constexpr std::size_t kTraceCapacity = 8192;

struct TraceStats {
  std::uint64_t recorded = 0;  ///< events currently held across all rings
  std::uint64_t dropped = 0;   ///< events overwritten by ring wraparound
};

[[nodiscard]] TraceStats trace_stats();
void reset_trace();

/// chrome://tracing / Perfetto JSON ({"traceEvents": [...]}, complete "X"
/// events, ts/dur in microseconds, one tid per instrumented thread). Spans
/// recorded under a request context carry `"args":{"trace":"<16-hex>"}`
/// (plus `"ref"` for cross-request adoption events), so one request's spans
/// can be filtered out of the interleaved per-thread rings.
[[nodiscard]] std::string trace_json();
void write_trace_json(const std::string& path);

/// Every held span whose trace id equals `trace_id` (any thread, any order).
[[nodiscard]] std::vector<TraceEvent> spans_for(std::uint64_t trace_id);

/// The stitched per-request span tree: all spans carrying `trace_id`,
/// nested by interval containment across threads (the pool shares the
/// process clock, so a task span sits inside the request span that posted
/// it). Text form is an indented one-line-per-span rendering for
/// `mrcc trace-read`; JSON form is {"trace":"<16-hex>","spans":[nodes]} with
/// each node {"name","ts","dur","tid","children"} — the slow-log keeps this.
[[nodiscard]] std::string span_tree_text(std::uint64_t trace_id);
[[nodiscard]] std::string span_tree_json(std::uint64_t trace_id);

namespace detail {
void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t dur_ns);
/// As record_span, with an explicit cross-request link (see TraceEvent::ref).
void record_span_ref(const char* name, std::uint64_t t0_ns,
                     std::uint64_t dur_ns, std::uint64_t ref);
}  // namespace detail

/// RAII trace scope. Construction is one enabled() branch when obs is off;
/// when on, the destructor pushes {name, t0, dur} into this thread's ring
/// and adds dur to the optional linked counter (per-stage _ns totals).
class Span {
 public:
  explicit Span(const char* name, Counter* dur_ns_counter = nullptr) {
    if (!enabled()) return;
    name_ = name;
    counter_ = dur_ns_counter;
    t0_ = now_ns();
  }
  ~Span() {
    if (name_ == nullptr) return;
    const std::uint64_t dur = now_ns() - t0_;
    if (counter_ != nullptr) counter_->add(dur);
    detail::record_span(name_, t0_, dur);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  Counter* counter_ = nullptr;
  std::uint64_t t0_ = 0;
};

// OBS_SPAN("stage") / OBS_SPAN("stage", &dur_counter): a uniquely named
// Span for the rest of the enclosing scope. Under MRC_OBS_DISABLED the Span
// body is constexpr-empty, so the whole statement compiles away.
//
// Placement rule: a span must wrap an *out-of-line* call, never share a
// function body with an inlined hot loop. The span itself is nearly free,
// but its destructor cleanup path and the registry magic-statics change the
// enclosing function's size and register pressure, which can cost a few
// percent on a loop inlined into the same body — a cost that would survive
// even with obs runtime-disabled. Mark the loop's function MRC_OBS_NOINLINE
// (and keep it free of obs code) so its codegen is identical whether or not
// the instrumentation around the call site is compiled in.
#define MRC_OBS_CONCAT_(a, b) a##b
#define MRC_OBS_CONCAT(a, b) MRC_OBS_CONCAT_(a, b)
#define OBS_SPAN(...) \
  const ::mrc::obs::Span MRC_OBS_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)
#if defined(__GNUC__) || defined(__clang__)
#define MRC_OBS_NOINLINE __attribute__((noinline))
#else
#define MRC_OBS_NOINLINE
#endif

/// Wall-clock section timer that doubles as a span emitter — the one timing
/// helper benches and tools share with production code, so bench sections
/// land in the same Perfetto timeline as codec/container/pool spans. Each
/// completed section (construction-to-restart, restart-to-restart, or
/// last-restart-to-destruction) is traced under the current name when obs
/// is enabled; seconds() / restart() always work, enabled or not.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name = "timer") : name_(name), t0_(tick()) {}

  ~ScopedTimer() { close(); }

  /// Seconds elapsed in the current (open) section.
  [[nodiscard]] double seconds() const {
    return static_cast<double>(tick() - t0_) * 1e-9;
  }

  /// Closes the current section (emitting its span), optionally renames,
  /// and starts the next one; returns the closed section's seconds.
  double restart(const char* next_name = nullptr) {
    const double s = close();
    if (next_name != nullptr) name_ = next_name;
    t0_ = tick();
    return s;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  // Always a real clock read: sections must time correctly with obs off.
  [[nodiscard]] static std::uint64_t tick() { return now_ns(); }

  double close() {
    const std::uint64_t t1 = tick();
    if (enabled()) detail::record_span(name_, t0_, t1 - t0_);
    return static_cast<double>(t1 - t0_) * 1e-9;
  }

  const char* name_;
  std::uint64_t t0_;
};

}  // namespace mrc::obs
