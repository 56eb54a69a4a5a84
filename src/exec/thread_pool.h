#pragma once

// Dependency-free parallel execution engine — the library's scheduling
// primitive. A fixed-size std::thread pool with two entry points:
//
//   * submit(fn)          — run a task asynchronously, get a std::future
//   * parallel_for(n, fn) — dynamic (work-stealing-counter) loop over [0, n)
//
// Tasks carry a two-level priority: Priority::high (the default — interactive
// work, parallel_for lanes) always runs before Priority::low (advisory work
// like serve-layer prefetch). Workers drain the high queue first, so a burst
// of queued prefetch decodes never delays a demand region read behind it —
// this is the backpressure lever the serve::Server admission tier sits on.
//
// A pool of size N owns N-1 worker threads; the calling thread is the N-th
// lane, so ThreadPool(1) spawns nothing and runs everything inline — serial
// call sites pay zero overhead. Construction with threads=0 sizes the pool
// to the hardware.
//
// Library loops do not build pools. The free exec::parallel_for(n, body,
// width) runs on a long-lived pool with that many lanes: one per lane count,
// built on first use and never torn down, so a loop starts no thread after
// the first call of its width and two callers of one width share its lanes.
// Only callers that need a pool's own queue — the serve layer's priority
// classes and prefetch, or a caller that passes in a pool of its own —
// construct a ThreadPool.
//
// parallel_for returns when its work is done. The caller is a lane too, and
// it waits only for indices that other lanes have claimed and not yet
// finished, never for a posted lane to start: a loop whose indices the
// caller takes itself (a warm serve read, whose bricks are all cache hits)
// costs no worker wake-up round trip. A posted lane that starts after every
// index has been claimed returns at once, with no span and no queue wait
// charged to the request.
//
// Exceptions thrown by tasks propagate: submit() delivers them through the
// future, parallel_for() rethrows the first one after every claimed index
// has finished (indices not yet claimed are skipped — fail fast, never
// deadlock).
//
// Request-context propagation: every posted task captures the submitter's
// obs::RequestCtx (trace id + per-request counters) and re-installs it on
// the executing lane — both priority classes, the inline single-lane path
// (trivially: it runs on the submitter's thread), and parallel_for lanes.
// Spans recorded inside a task therefore carry the trace id of the request
// that queued it, and the flight recorder sees a demand task's queue wait
// attributed to its request. Tasks posted outside any request context by a
// process with obs disabled are posted unwrapped — zero added cost.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/dims.h"

namespace mrc::exec {

/// Usable hardware concurrency; always >= 1 (hardware_concurrency() may
/// report 0 on exotic platforms).
[[nodiscard]] int hardware_threads();

/// True while the calling thread is executing work scheduled by any
/// ThreadPool — a worker running a task, a parallel_for lane (including the
/// calling thread's own lane, and the inline single-lane path), or an
/// inline post() on a workerless pool. exec::parallel_for consults this to
/// run nested loops inline.
[[nodiscard]] bool on_pool_lane();

/// Scheduling class of a pool task. High tasks preempt (queue ahead of) low
/// ones; within a class the queue is FIFO.
enum class Priority : std::uint8_t { high, low };

class ThreadPool {
 public:
  /// A pool with `threads` execution lanes (calling thread included);
  /// 0 means hardware_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes (worker threads + the calling thread), >= 1.
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Schedules `fn` on a worker (inline when the pool has no workers) and
  /// returns the future of its result.
  template <typename F>
  [[nodiscard]] auto submit(F fn) -> std::future<std::invoke_result_t<F>> {
    return submit(Priority::high, std::move(fn));
  }

  /// submit with an explicit scheduling class; low-priority tasks wait for
  /// every queued high-priority task.
  template <typename F>
  [[nodiscard]] auto submit(Priority p, F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); }, p);
    return fut;
  }

  /// Tasks queued but not yet picked up by a worker (both classes) — the
  /// serve::Server stats surface reports this as scheduler backlog.
  [[nodiscard]] std::size_t queued() const;

  /// Per-class backlog: demand (high) vs advisory (low) tasks waiting. The
  /// serve stats_ok frame carries both, so a client can tell "the server is
  /// busy warming bricks" from "demand reads are queueing".
  [[nodiscard]] std::size_t queued_high() const;
  [[nodiscard]] std::size_t queued_low() const;

  /// Runs body(i) for i in [0, n) across all lanes, each lane claiming the
  /// next index off a shared counter (dynamic load balancing for uneven work
  /// like variable-entropy bricks). Returns once every index has finished,
  /// without waiting for posted lanes that claimed none; rethrows the first
  /// task exception.
  void parallel_for(index_t n, const std::function<void(index_t)>& body);

 private:
  /// Runs or queues a task wrapped with the submitter's request context.
  void post(std::function<void()> fn, Priority p = Priority::high);
  /// Queues `fn` as is for a worker (the pool must have workers).
  void enqueue(std::function<void()> fn, Priority p);
  void worker_loop();
  void update_queue_gauges() const;  ///< obs queue-depth gauges; holds mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;      ///< Priority::high, FIFO
  std::deque<std::function<void()>> low_queue_;  ///< Priority::low, FIFO
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Lanes a loop of width `width` runs on: `width`, or hardware_threads()
/// for 0.
[[nodiscard]] int lanes_for(int width);

/// Lanes a loop of width `width` started by this thread would get: 1 on a
/// pool lane, where parallel_for runs nested loops inline, else
/// lanes_for(width). Codecs ask this before splitting one stream's work, so
/// a brick coded on a pool lane pays nothing for the split.
[[nodiscard]] int lanes_here(int width);

/// The library's one way to spread a loop: runs body(i) for i in [0, n) on
/// min(n, lanes_for(width)) lanes of the long-lived pool with that lane
/// count. Width 1 runs serially on the caller, as a lane of its own. So does
/// a call on a pool lane: the outer loop already owns the machine, and a
/// nested loop would only oversubscribe it. Rethrows the first exception
/// like ThreadPool::parallel_for.
void parallel_for(index_t n, const std::function<void(index_t)>& body, int width = 0);

/// Slabs a loop of width `width` splits n ordered items into: min(n, lanes).
[[nodiscard]] inline index_t slab_count(index_t n, int width) {
  return std::min<index_t>(n, lanes_for(width));
}

/// The library's one slab split: parallel_for(slabs, ..., width) calling
/// body(s, lo, hi) with slab s covering items [s·n/slabs, (s+1)·n/slabs), so
/// per-slab results merged in slab order are merged in item order.
inline void for_slabs(index_t n, index_t slabs,
                      const std::function<void(index_t s, index_t lo, index_t hi)>& body,
                      int width = 0) {
  parallel_for(slabs, [&](index_t s) { body(s, s * n / slabs, (s + 1) * n / slabs); }, width);
}

}  // namespace mrc::exec
