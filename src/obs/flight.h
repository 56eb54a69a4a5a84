#pragma once

// Always-on flight recorder of the serve tier: a fixed-size, lock-striped
// ring of per-request records plus a bounded slow-log that retains the full
// stitched span tree of tail requests. Unlike the span rings (obs.h), this
// is NOT behind the obs kill switch — it is the artifact that explains a p99
// outlier or an error reply *after the fact*, so it must already be running
// when the question is asked.
//
// Cost model (enforced by bench_obs_overhead, which runs the serve path with
// the recorder on in every mode):
//
//   * record()      — one relaxed fetch_add to pick a stripe, one stripe
//     mutex (uncontended at 8 stripes unless >8 threads complete requests
//     in the same instant) and a copy of FlightRecord (112 bytes on
//     x86-64). O(1), no allocation after the rings fill, independent of
//     obs::enabled().
//   * slow capture  — only for requests ending in an error frame or slower
//     than the threshold: those additionally snapshot their span tree
//     (empty when obs is disabled — the record itself still lands).
//
// Accounting is exact: stripes are chosen round-robin from one global
// sequence counter, and each stripe counts lifetime pushes under its lock,
// so recorded + dropped == total record() calls in any stats() snapshot,
// under any thread interleaving.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace mrc::obs {

/// One served request, as the flight recorder keeps it. `frame_type` is the
/// raw wire request type byte (0 = the frame never parsed); `outcome` is 0
/// for success, else the ServerError code of the error reply. `box`/`level`
/// are only meaningful for region/lod requests (zeroed otherwise).
struct FlightRecord {
  std::uint64_t trace = 0;          ///< client trace id; 0 = untraced
  std::uint64_t end_ns = 0;         ///< obs::now_ns at reply completion
  std::uint64_t total_us = 0;       ///< frame in -> reply bytes out
  std::uint64_t queue_wait_us = 0;  ///< demand pool tasks' queue wait, summed
  std::uint64_t cache_hits = 0;     ///< brick lookups this request won
  std::uint64_t cache_misses = 0;   ///< brick lookups this request decoded
  std::int64_t box_lo[3] = {0, 0, 0};
  std::int64_t box_hi[3] = {0, 0, 0};
  std::uint32_t dataset = 0;
  std::int32_t level = 0;
  std::uint8_t frame_type = 0;
  std::uint8_t outcome = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kCapacity = 1024;  ///< records held, total
  static constexpr std::size_t kSlowLogCapacity = 32;
  static constexpr std::uint64_t kDefaultSlowUs = 50'000;

  /// The process-wide recorder (leaked singleton, same lifetime rules as
  /// the obs registry).
  static FlightRecorder& global();

  /// Appends one record; wraps round-robin once the stripe fills. Also
  /// captures the request into the slow-log when it errored or exceeded the
  /// slow threshold.
  void record(const FlightRecord& rec);

  struct Stats {
    std::uint64_t recorded = 0;  ///< records currently held
    std::uint64_t dropped = 0;   ///< records overwritten by wraparound
  };
  [[nodiscard]] Stats stats() const;

  /// Every held record, oldest-to-newest per stripe (cross-stripe order is
  /// by end_ns only as far as the caller sorts it).
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  struct SlowEntry {
    FlightRecord rec;
    std::string spans;  ///< span_tree_json at capture; "" when obs was off
  };
  [[nodiscard]] std::vector<SlowEntry> slow_log() const;

  /// Requests slower than this (or ending in an error) enter the slow-log.
  void set_slow_threshold_us(std::uint64_t us);
  [[nodiscard]] std::uint64_t slow_threshold_us() const;

  void reset();  ///< drops held records, slow entries, and push counters

 private:
  FlightRecorder() = default;

  struct Stripe {
    mutable std::mutex mu;
    std::vector<FlightRecord> ring;  ///< grows to kCapacity/kStripes, wraps
    std::uint64_t pushed = 0;        ///< lifetime; dropped = pushed - held
  };

  static constexpr std::size_t kStripeCapacity = kCapacity / kStripes;

  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> slow_us_{kDefaultSlowUs};
  mutable std::mutex slow_mu_;
  std::deque<SlowEntry> slow_;  ///< newest kept; oldest dropped at capacity
};

/// The recorder + slow-log as one JSON document:
/// {"flight":{"capacity","recorded","dropped","slow_threshold_us",
///            "records":[...newest-last...],"slow":[{"record",...,"spans"}]}}
[[nodiscard]] std::string flight_json();
void write_flight_json(const std::string& path);

}  // namespace mrc::obs
