#include "exec/thread_pool.h"

#include <atomic>
#include <algorithm>

#include "common/require.h"
#include "obs/obs.h"

namespace mrc::exec {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

thread_local bool t_on_pool_lane = false;

/// Marks the current thread as a pool lane for a scope; restores the prior
/// value so nested pools (an inner pool built on an outer worker) unwind
/// correctly.
struct LaneScope {
  bool prev = t_on_pool_lane;
  LaneScope() { t_on_pool_lane = true; }
  ~LaneScope() { t_on_pool_lane = prev; }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
};

}  // namespace

bool on_pool_lane() { return t_on_pool_lane; }

ThreadPool::ThreadPool(int threads) {
  MRC_REQUIRE(threads >= 0, "negative thread count");
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> fn, Priority p) {
  static obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  tasks.add(1);
  if (workers_.empty()) {  // single-lane pool: run inline, no queue traffic
    const LaneScope lane_scope;
    OBS_SPAN("exec.task");
    fn();
    return;
  }
  // Wrap at enqueue time so (a) the submitter's request context travels to
  // the worker lane — that is what lets a span recorded inside a decode task
  // carry the serving request's trace id — and (b) the task's wait
  // (enqueue -> first instruction) and run (span) are both visible; wait is
  // the scheduler-backlog signal the queue-depth gauges only sample. Context
  // capture is always on (the flight recorder runs with obs disabled); a
  // task posted outside any request by a process with obs off stays
  // unwrapped and pays nothing.
  const obs::RequestCtxPtr ctx = obs::current_request();
  if (ctx != nullptr || obs::enabled()) {
    fn = [inner = std::move(fn), ctx, enq = obs::now_ns(),
          demand = (p == Priority::high)] {
      const obs::RequestScope scope(ctx);
      const std::uint64_t waited = obs::now_ns() - enq;
      // Only demand tasks charge their queue wait to the request: a
      // request's advisory prefetches may sit behind arbitrary low-priority
      // backlog without making *this* request look slow.
      if (ctx != nullptr && demand)
        ctx->queue_wait_ns.fetch_add(waited, std::memory_order_relaxed);
      if (obs::enabled()) {
        static obs::Counter& wait =
            obs::Registry::global().counter("mrc.exec.wait_ns");
        static obs::Counter& run =
            obs::Registry::global().counter("mrc.exec.run_ns");
        wait.add(waited);
        OBS_SPAN("exec.task", &run);
        inner();
        return;
      }
      inner();
    };
  }
  {
    const std::lock_guard lock(mu_);
    (p == Priority::high ? queue_ : low_queue_).push_back(std::move(fn));
    if (obs::enabled()) update_queue_gauges();
  }
  cv_.notify_one();
}

/// Caller holds mu_.
void ThreadPool::update_queue_gauges() const {
  static obs::Gauge& high = obs::Registry::global().gauge("mrc.exec.queue_high");
  static obs::Gauge& low = obs::Registry::global().gauge("mrc.exec.queue_low");
  high.set(static_cast<std::int64_t>(queue_.size()));
  low.set(static_cast<std::int64_t>(low_queue_.size()));
}

std::size_t ThreadPool::queued() const {
  const std::lock_guard lock(mu_);
  return queue_.size() + low_queue_.size();
}

std::size_t ThreadPool::queued_high() const {
  const std::lock_guard lock(mu_);
  return queue_.size();
}

std::size_t ThreadPool::queued_low() const {
  const std::lock_guard lock(mu_);
  return low_queue_.size();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock,
               [this] { return stop_ || !queue_.empty() || !low_queue_.empty(); });
      if (queue_.empty() && low_queue_.empty()) return;  // stop_ and drained
      auto& q = queue_.empty() ? low_queue_ : queue_;
      fn = std::move(q.front());
      q.pop_front();
      if (obs::enabled()) update_queue_gauges();
    }
    const LaneScope lane_scope;
    fn();
  }
}

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& body) {
  if (n <= 0) return;
  const int lanes = static_cast<int>(std::min<index_t>(size(), n));
  if (lanes <= 1) {
    // Still a pool lane conceptually (the calling thread), so serial
    // parallel_for runs stay visible in the trace timeline.
    const LaneScope lane_scope;
    OBS_SPAN("exec.lane");
    for (index_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct Shared {
    std::atomic<index_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr error;
  } sh;

  auto lane = [&sh, n, &body] {
    const LaneScope lane_scope;
    OBS_SPAN("exec.lane");
    try {
      for (;;) {
        if (sh.failed.load(std::memory_order_relaxed)) return;
        const index_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    } catch (...) {
      const std::lock_guard lock(sh.err_mu);
      if (!sh.error) sh.error = std::current_exception();
      sh.failed.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::future<void>> futs;
  futs.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 0; i < lanes - 1; ++i) futs.push_back(submit(lane));
  lane();  // the calling thread is a lane too
  for (auto& f : futs) f.get();  // lane() never throws; errors land in sh.error
  if (sh.error) std::rethrow_exception(sh.error);
}

void parallel_for(index_t n, const std::function<void(index_t)>& body) {
  if (n <= 0) return;
  if (on_pool_lane()) {
    for (index_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool(static_cast<int>(std::min<index_t>(n, hardware_threads())))
      .parallel_for(n, body);
}

}  // namespace mrc::exec
