#pragma once

// Multi-tenant serving front end: one process, many datasets, many
// concurrent clients. A serve::Server opens any number of
// MRCT/MRCP/MRCA/MRCR streams behind ONE global byte-budgeted BrickCache
// and ONE exec pool:
//
//   * Global cache. Every dataset's bricks compete for the same budget —
//     a hot dataset evicts a cold one's bricks instead of each hoarding a
//     private allotment — and identical concurrent decodes coalesce across
//     clients (see brick_cache.h).
//
//   * Priority + backpressure. Demand reads run their decode lanes at
//     exec::Priority::high while prefetch warms at Priority::low, so a
//     prefetch backlog never delays an interactive read. On top sits a
//     bounded admission gate: more than cfg.max_active concurrently served
//     reads are shed immediately with ServerError::Code::overloaded —
//     clients get an explicit "try again" instead of unbounded queueing.
//
//   * Stats. stats() snapshots the global (or per-dataset) cache counters —
//     consistent: hits + misses == lookups — plus scheduler queue depth,
//     admission counters, and p50/p99 read latency from a lock-free
//     streaming histogram.
//
//   * Wire surface. handle_frame() serves the serve::wire protocol
//     (open/region/lod/stats/close) for any transport that can move bytes;
//     it never throws — every failure is returned as an error frame.
//
// Thread safety: every public method may be called from any number of
// threads. Dataset handles are snapshotted under a shared lock and served
// lock-free, so a close() only takes effect for requests admitted after it.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/dataset.h"

namespace mrc::serve {

struct ServerConfig {
  std::size_t cache_bytes = 256ull << 20;  ///< global budget, all datasets
  int threads = 0;        ///< shared exec-pool lanes; 0 = hardware
  bool prefetch = true;   ///< warm neighbor bricks after each read
  std::size_t max_active = 64;  ///< admission cap on in-flight reads, >= 1
};

/// A server-level failure surfaced to callers and, over the wire, encoded
/// into error frames (the code survives the round trip).
class ServerError : public std::runtime_error {
 public:
  enum class Code : std::uint8_t {
    overloaded = 1,       ///< admission gate shed the request; retry later
    bad_request = 2,      ///< malformed frame / invalid arguments
    unknown_dataset = 3,  ///< no dataset with that id (never opened, or closed)
  };

  ServerError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] Code code() const { return code_; }

  /// Wire attribution, filled in by wire::Client when it decodes an error
  /// frame: the request type byte that failed (0 = the frame never parsed)
  /// and the echoed trace id (0 = the request was untraced). Server-side
  /// throws leave both at 0 — the frame layer adds them on the way out.
  std::uint8_t failed_request = 0;
  std::uint64_t trace = 0;

 private:
  Code code_;
};

/// One stats() snapshot. `cache` is internally consistent (hits + misses ==
/// lookups, exactly, under any concurrency); the remaining fields are
/// independent relaxed reads of server-wide counters.
struct ServerStats {
  CacheStats cache;             ///< global, or one dataset's slice
  std::uint32_t datasets = 0;   ///< streams currently open
  std::uint64_t queue_high = 0;  ///< demand pool tasks queued
  std::uint64_t queue_low = 0;   ///< advisory (prefetch) pool tasks queued
  std::uint64_t active = 0;     ///< reads being served right now
  std::uint64_t requests = 0;   ///< reads admitted since construction
  std::uint64_t rejected = 0;   ///< reads shed with Code::overloaded
  std::uint64_t p50_us = 0;     ///< median admitted-read latency
  std::uint64_t p99_us = 0;     ///< tail admitted-read latency (>= p50)
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg = {});
  ~Server();
  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a tiled/pyramid/adaptive/progressive stream as a served dataset
  /// and returns its handle. Throws CodecError on any other stream.
  std::uint32_t open(Bytes stream, std::string name = {});

  /// Closes a dataset: the handle dies immediately, its cached bricks are
  /// evicted, reads already admitted finish. Throws ServerError
  /// (unknown_dataset) on a bad handle.
  void close(std::uint32_t id);

  /// (id, name) of every open dataset, ascending by id.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>> list() const;

  [[nodiscard]] int levels(std::uint32_t id) const;
  [[nodiscard]] Dim3 dims(std::uint32_t id, int level) const;
  [[nodiscard]] double eb(std::uint32_t id) const;

  /// Serves one region read through the global cache — bit-identical to the
  /// container's own read_region. Counts against the admission gate; throws
  /// ServerError (overloaded) when cfg.max_active reads are already in
  /// flight, ServerError (unknown_dataset) on a bad handle.
  [[nodiscard]] FieldF read_region(std::uint32_t id, int level,
                                   const tiled::Box& region);

  /// Serves one progressive read (progressive datasets only): the layered
  /// coarse-first form of read_region, counted against the admission gate
  /// exactly once for the whole layer chain. Folding the layers with
  /// progressive::refine reproduces read_region(id, level, region)
  /// bit-exactly; the wire path streams them as one multi-frame reply.
  [[nodiscard]] std::vector<ProgressiveLayer> read_progressive(
      std::uint32_t id, int level, const tiled::Box& region);

  /// Dataset::choose_level by handle (metadata math: not admission-gated).
  [[nodiscard]] int choose_level(std::uint32_t id, const tiled::Box& fine_box,
                                 index_t sample_budget) const;

  [[nodiscard]] ServerStats stats() const;  ///< global cache scope
  /// Same server-wide gauges, cache counters scoped to one dataset.
  [[nodiscard]] ServerStats stats(std::uint32_t id) const;

  /// Serves one serve::wire request frame and returns the reply frame.
  /// Total: every failure — unparseable frame, unknown type, bad handle,
  /// overload, decode error — is returned as a wire error frame, so a
  /// transport loop never needs a try/catch.
  [[nodiscard]] Bytes handle_frame(std::span<const std::byte> frame);

  /// Blocks until no decode (demand or prefetch) is queued or running.
  void wait_idle();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrc::serve
