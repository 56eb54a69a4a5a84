#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

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

/// A loop on one lane: the calling thread, marked as a lane so nested loops
/// run inline and serial runs stay visible in the trace timeline.
void run_serial(index_t n, const std::function<void(index_t)>& body) {
  const LaneScope lane_scope;
  OBS_SPAN("exec.lane");
  for (index_t i = 0; i < n; ++i) body(i);
}

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
  enqueue(std::move(fn), p);
}

void ThreadPool::enqueue(std::function<void()> fn, Priority p) {
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

namespace {

/// One parallel_for call, shared by the caller and the lanes it posts. A
/// posted lane may start after the call has returned, so it holds this by
/// shared_ptr and touches `body` only after claiming an index: every
/// claimed index finishes before the caller returns.
struct LoopState {
  LoopState(index_t count, const std::function<void(index_t)>& fn)
      : n(count), body(&fn) {}

  const index_t n;
  const std::function<void(index_t)>* body;
  std::atomic<index_t> next{0};  ///< next unclaimed index
  std::mutex mu;                 ///< guards done and error
  std::condition_variable all_done;
  index_t done = 0;  ///< claimed indices that have finished
  std::exception_ptr error;

  [[nodiscard]] index_t claim() { return next.fetch_add(1, std::memory_order_relaxed); }

  /// Runs claimed index `i` and every index claimed after it, then reports
  /// them finished. The exec.lane span closes before the report, so it ends
  /// inside the caller's call.
  void run(index_t i, obs::Counter* run_ns = nullptr) {
    index_t ran = 0;
    {
      OBS_SPAN("exec.lane", run_ns);
      for (; i < n; i = claim()) {
        try {
          (*body)(i);
        } catch (...) {
          {
            const std::lock_guard lock(mu);
            if (!error) error = std::current_exception();
          }
          // Fail fast: no index is handed out after this one, and the ones
          // never handed out count as finished here.
          const index_t rest = next.exchange(n, std::memory_order_relaxed);
          if (rest < n) ran += n - rest;
        }
        ++ran;
      }
    }
    bool last = false;
    {
      const std::lock_guard lock(mu);
      done += ran;
      last = done == n;
    }
    // Outside the lock, so the woken caller does not block on it again. This
    // lane's own reference keeps the state alive until the call returns.
    if (last) all_done.notify_one();
  }
};

}  // namespace

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& body) {
  if (n <= 0) return;
  const int lanes = static_cast<int>(std::min<index_t>(size(), n));
  if (lanes <= 1) {
    run_serial(n, body);
    return;
  }

  static obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  const auto st = std::make_shared<LoopState>(n, body);
  // A posted lane joins the request only once it claims an index: that is
  // when it installs the caller's context and charges its queue wait, as a
  // demand task does when it starts. One that starts after the caller took
  // every index returns at once, leaving no span and no charge.
  const obs::RequestCtxPtr ctx = obs::current_request();
  const bool stamp = ctx != nullptr || obs::enabled();
  const std::uint64_t enq = stamp ? obs::now_ns() : 0;
  for (int i = 0; i < lanes - 1; ++i) {
    tasks.add(1);
    enqueue([st, ctx, enq, stamp] {
      const index_t first = st->claim();
      if (first >= st->n) return;
      const obs::RequestScope scope(ctx);
      if (stamp) {
        const std::uint64_t waited = obs::now_ns() - enq;
        if (ctx != nullptr)
          ctx->queue_wait_ns.fetch_add(waited, std::memory_order_relaxed);
        if (obs::enabled()) {
          static obs::Counter& wait =
              obs::Registry::global().counter("mrc.exec.wait_ns");
          wait.add(waited);
        }
      }
      static obs::Counter& run = obs::Registry::global().counter("mrc.exec.run_ns");
      st->run(first, &run);
    }, Priority::high);
  }
  {
    const LaneScope lane_scope;  // the calling thread is a lane too
    const index_t first = st->claim();
    if (first < n) st->run(first);
  }
  // Wait for the indices still running on posted lanes, never for a lane
  // to start: one that has not claimed anything by now never will.
  std::exception_ptr error;
  {
    std::unique_lock lock(st->mu);
    st->all_done.wait(lock, [&] { return st->done == n; });
    // Take the exception out of the shared state: a posted lane may be the
    // last owner of that state, and the exception must die on this thread.
    error = std::exchange(st->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

int lanes_for(int width) {
  MRC_REQUIRE(width >= 0, "negative loop width");
  return width == 0 ? hardware_threads() : width;
}

int lanes_here(int width) {
  const int lanes = lanes_for(width);
  return on_pool_lane() ? 1 : lanes;
}

namespace {

/// The long-lived pool with `lanes` lanes, built on first use. Leaked like
/// obs::FlightRecorder::global(): its lanes never join, and a loop that
/// runs during static destruction still finds it.
ThreadPool& pool_of(int lanes) {
  static auto* mu = new std::mutex();
  static auto* pools = new std::map<int, ThreadPool>();  // guarded by mu
  const std::lock_guard lock(*mu);
  return pools->try_emplace(lanes, lanes).first->second;
}

}  // namespace

void parallel_for(index_t n, const std::function<void(index_t)>& body, int width) {
  MRC_REQUIRE(width >= 0, "negative loop width");
  if (n <= 0) return;
  if (on_pool_lane()) {
    for (index_t i = 0; i < n; ++i) body(i);
    return;
  }
  const int lanes = lanes_for(width);
  if (lanes == 1 || n == 1) {
    run_serial(n, body);
    return;
  }
  pool_of(lanes).parallel_for(n, body);
}

}  // namespace mrc::exec
