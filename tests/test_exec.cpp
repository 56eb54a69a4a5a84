// exec::ThreadPool — the library's scheduling primitive: sizing, task
// futures, parallel_for coverage/determinism, and exception propagation —
// and the free exec::parallel_for on its long-lived per-width pools.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace mrc {
namespace {

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(exec::hardware_threads(), 1);
}

TEST(ThreadPool, SizeMatchesRequestedLanes) {
  EXPECT_EQ(exec::ThreadPool(1).size(), 1);
  EXPECT_EQ(exec::ThreadPool(4).size(), 4);
  EXPECT_EQ(exec::ThreadPool(0).size(), exec::hardware_threads());
  EXPECT_THROW(exec::ThreadPool(-1), ContractError);
}

TEST(ThreadPool, SubmitDeliversResults) {
  exec::ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitRunsInlineOnSingleLanePool) {
  exec::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  auto fut = pool.submit([caller] { return std::this_thread::get_id() == caller; });
  EXPECT_TRUE(fut.get());
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw CodecError("boom"); });
  EXPECT_THROW((void)fut.get(), CodecError);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 5}) {
    for (const index_t n : {index_t{0}, index_t{1}, index_t{7}, index_t{1000}}) {
      exec::ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pool.parallel_for(n, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; });
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << threads << " " << i;
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  exec::ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&](index_t i) {
      ran++;
      if (i == 13) throw CodecError("lane failure");
    });
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_STREQ(e.what(), "lane failure");
  }
  EXPECT_GE(ran.load(), 1);  // fail-fast: later iterations may be skipped
}

TEST(ThreadPool, ParallelForRunsConcurrently) {
  // With 4 lanes and 4 long-ish tasks, at least two must overlap in time —
  // observed via a peak-concurrency counter (timing-free, so no flakes on
  // loaded single-core machines: the assertion is only that the pool used
  // more than one thread, which a 1-CPU box still satisfies by preemption).
  exec::ThreadPool pool(4);
  std::set<std::thread::id> ids;
  std::mutex mu;
  pool.parallel_for(4, [&](index_t) {
    const std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, HighPriorityPreemptsQueuedLowAndQueuedCounts) {
  // One worker (pool of 2 lanes), blocked by a gate task; while it is busy,
  // queue a low task, then a high one. The worker must drain the high queue
  // first — this is the serve-layer guarantee that a prefetch backlog never
  // delays a demand read — and queued() must see the backlog.
  exec::ThreadPool pool(2);
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();  // the worker is now inside the gate task

  std::mutex mu;
  std::vector<int> order;
  auto low = pool.submit(exec::Priority::low, [&] {
    const std::lock_guard lock(mu);
    order.push_back(0);
  });
  auto high = pool.submit(exec::Priority::high, [&] {
    const std::lock_guard lock(mu);
    order.push_back(1);
  });
  EXPECT_EQ(pool.queued(), 2u);  // both still behind the gate

  gate.set_value();
  blocker.get();
  high.get();
  low.get();
  EXPECT_EQ(pool.queued(), 0u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // high ran first despite being queued second
  EXPECT_EQ(order[1], 0);
}

TEST(ThreadPool, SingleLanePoolRunsBothPrioritiesInline) {
  exec::ThreadPool pool(1);
  int ran = 0;
  pool.submit(exec::Priority::low, [&] { ran += 1; }).get();
  pool.submit(exec::Priority::high, [&] { ran += 2; }).get();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, RequestContextPropagatesToBothLanesAndSerialFallback) {
  // The serve layer installs a RequestCtx on the request thread; every task
  // it posts — demand or prefetch lane — must observe that context on the
  // worker, and the worker's slot must come back clear afterwards.
  const auto ctx = std::make_shared<obs::RequestCtx>();
  ctx->trace = 0x7e57;
  const obs::RequestScope scope(ctx);

  exec::ThreadPool pool(2);
  std::atomic<std::uint64_t> high_seen{0}, low_seen{0};
  pool.submit(exec::Priority::high,
              [&] { high_seen = obs::current_trace(); })
      .get();
  pool.submit(exec::Priority::low, [&] { low_seen = obs::current_trace(); })
      .get();
  EXPECT_EQ(high_seen.load(), 0x7e57u);
  EXPECT_EQ(low_seen.load(), 0x7e57u);

  // Single-lane pools run inline on the caller — the serial fallback keeps
  // the same context trivially.
  exec::ThreadPool serial(1);
  std::uint64_t inline_seen = 0;
  serial.submit([&] { inline_seen = obs::current_trace(); }).get();
  EXPECT_EQ(inline_seen, 0x7e57u);

  // A task posted with no context (and obs off) leaves the worker's slot
  // clear even though a traced task ran on that worker just before.
  std::atomic<std::uint64_t> after{1};
  {
    const obs::RequestScope clear(nullptr);
    pool.submit([&] { after = obs::current_trace(); }).get();
  }
  EXPECT_EQ(after.load(), 0u);
}

TEST(ThreadPool, QueueWaitIsChargedToDemandTasksOnly) {
  // Block the single worker behind a gate, queue one task per lane under
  // two different request contexts, and let both sit for a few ms. Only the
  // demand (high) task may charge its queue wait to its request — a
  // prefetch waiting behind low-priority backlog must not make the request
  // that issued it look slow.
  exec::ThreadPool pool(2);
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();

  const auto demand = std::make_shared<obs::RequestCtx>();
  const auto advisory = std::make_shared<obs::RequestCtx>();
  std::future<void> low, high;
  {
    const obs::RequestScope s(advisory);
    low = pool.submit(exec::Priority::low, [] {});
  }
  {
    const obs::RequestScope s(demand);
    high = pool.submit(exec::Priority::high, [] {});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.set_value();
  blocker.get();
  high.get();
  low.get();

  EXPECT_EQ(advisory->queue_wait_ns.load(), 0u);
  EXPECT_GE(demand->queue_wait_ns.load(), 1'000'000u);  // >= 1 of the ~5 ms
}

/// Holds the single worker of a two-lane pool behind a gate, so a lane the
/// pool posts cannot start until release(); the destructor always opens the
/// gate and waits for the held task.
struct HeldWorker {
  exec::ThreadPool pool{2};
  std::promise<void> started;
  std::promise<void> gate;
  std::future<void> blocker;

  HeldWorker() {
    std::shared_future<void> open = gate.get_future().share();
    blocker = pool.submit([this, open] {
      started.set_value();
      open.wait();
    });
    started.get_future().wait();
  }
  ~HeldWorker() { release(); }
  void release() {
    if (!blocker.valid()) return;
    gate.set_value();
    blocker.get();
  }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;
};

TEST(ThreadPool, ParallelForReturnsWhileTheOtherLaneIsBusy) {
  // The lane parallel_for posts sits behind the held worker, so the caller
  // claims every index itself and must return without waiting for that
  // lane to start. Run through std::async so a pool that does wait fails
  // the 5 s deadline instead of hanging the test.
  HeldWorker held;
  std::vector<int> hits(8, 0);
  std::atomic<int> foreign{0};
  auto loop = std::async(std::launch::async, [&] {
    const auto self = std::this_thread::get_id();
    held.pool.parallel_for(8, [&](index_t i) {
      if (std::this_thread::get_id() != self) foreign++;
      ++hits[static_cast<std::size_t>(i)];
    });
  });
  const bool returned =
      loop.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  held.release();
  loop.get();
  EXPECT_TRUE(returned);
  EXPECT_EQ(foreign.load(), 0);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, LaneThatClaimsNothingLeavesNoTrace) {
  // The posted lane starts only after the caller has claimed every index:
  // it must return without a span of its own and without charging its ~5 s
  // in the queue to the request that posted it.
  obs::set_enabled(true);
  obs::reset_trace();
  const auto ctx = std::make_shared<obs::RequestCtx>();
  ctx->trace = 0x1a4e;
  bool returned = false;
  {
    HeldWorker held;
    auto loop = std::async(std::launch::async, [&] {
      const obs::RequestScope scope(ctx);
      held.pool.parallel_for(8, [](index_t) {});
    });
    returned = loop.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    held.release();
    loop.get();
    held.pool.submit([] {}).get();  // FIFO behind the posted lane: it has run
  }
  std::size_t lanes = 0;
  for (const obs::TraceEvent& e : obs::spans_for(ctx->trace))
    if (std::string_view(e.name) == "exec.lane") ++lanes;
  obs::set_enabled(false);
  obs::reset_trace();
  EXPECT_TRUE(returned);
  EXPECT_EQ(lanes, 1u);  // the caller's
  EXPECT_EQ(ctx->queue_wait_ns.load(), 0u);
}

TEST(ThreadPool, ParallelForLanesSeeTheCallersContext) {
  const auto ctx = std::make_shared<obs::RequestCtx>();
  ctx->trace = 0xabc;
  const obs::RequestScope scope(ctx);
  exec::ThreadPool pool(4);
  std::atomic<int> wrong{0};
  pool.parallel_for(64, [&](index_t) {
    if (obs::current_trace() != 0xabc) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, NestedPoolsDoNotDeadlock) {
  // A lane that builds its own (serial) pool must not interact with the
  // outer pool's queue.
  exec::ThreadPool outer(3);
  std::atomic<index_t> sum{0};
  outer.parallel_for(9, [&](index_t i) {
    exec::ThreadPool inner(1);
    inner.parallel_for(3, [&](index_t j) { sum += i * 3 + j; });
  });
  EXPECT_EQ(sum.load(), 27 * 26 / 2);
}

// exec::parallel_for — the free loop on the long-lived pool of its width.

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  const index_t wide = 4 * exec::hardware_threads() + 3;
  for (const index_t n : {index_t{1}, index_t{2}, index_t{7}, wide, index_t{1000}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec::parallel_for(n, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << n << " " << i;
  }
}

TEST(ParallelFor, RunsOnTheCallingLaneWhenNested) {
  // Called from a pool lane, every index runs serially on that lane's own
  // thread: no nested pool, no extra threads.
  exec::ThreadPool outer(3);
  std::atomic<int> foreign{0};
  std::atomic<int> ran{0};
  outer.parallel_for(6, [&](index_t) {
    const auto lane = std::this_thread::get_id();
    exec::parallel_for(5, [&](index_t) {
      ran++;
      if (std::this_thread::get_id() != lane) foreign++;
    });
  });
  EXPECT_EQ(ran.load(), 30);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  for (const bool nested : {false, true}) {
    auto run = [] {
      exec::parallel_for(64, [](index_t i) {
        if (i == 13) throw CodecError("lane failure");
      });
    };
    try {
      if (nested)
        exec::ThreadPool(1).parallel_for(1, [&](index_t) { run(); });
      else
        run();
      FAIL() << "expected CodecError, nested=" << nested;
    } catch (const CodecError& e) {
      EXPECT_STREQ(e.what(), "lane failure");
    }
  }
}

TEST(ParallelFor, ZeroAndNegativeCountsAreNoOps) {
  int calls = 0;
  exec::parallel_for(0, [&](index_t) { ++calls; });
  exec::parallel_for(-3, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

/// The kernel's id of the calling thread.
long os_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

/// Ids of every thread this process has right now.
std::set<long> live_tids() {
  std::set<long> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    tids.insert(std::stol(entry.path().filename().string()));
  return tids;
}

/// Keeps the calling lane busy for `us` microseconds, so that every lane of
/// a loop gets to claim indices.
void spin_us(int us) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ParallelFor, ASecondCallOfAWidthStartsNoThread) {
  exec::parallel_for(8, [](index_t) { spin_us(100); }, 4);
  const std::set<long> before = live_tids();
  std::mutex mu;
  std::set<long> lanes;
  exec::parallel_for(64, [&](index_t) {
    spin_us(100);
    const std::lock_guard lock(mu);
    lanes.insert(os_tid());
  }, 4);
  for (const long tid : lanes)
    EXPECT_EQ(before.count(tid), 1u) << "lane " << tid << " started after the first call";
}

TEST(ParallelFor, TwoCallersOfOneWidthEachSeeEveryIndexOnce) {
  constexpr index_t n = 500;
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    for (int rep = 0; rep < 20; ++rep)
      exec::parallel_for(n, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; }, 4);
  };
  std::vector<std::atomic<int>> a(static_cast<std::size_t>(n));
  std::vector<std::atomic<int>> b(static_cast<std::size_t>(n));
  std::thread other([&] { caller(b); });
  caller(a);
  other.join();
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[static_cast<std::size_t>(i)].load(), 20) << i;
    ASSERT_EQ(b[static_cast<std::size_t>(i)].load(), 20) << i;
  }
}

TEST(ParallelFor, AWidthWLoopRunsOnAtMostWThreads) {
  for (const int width : {1, 2, 3, 4}) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    exec::parallel_for(32, [&](index_t) {
      spin_us(50);
      const std::lock_guard lock(mu);
      threads.insert(std::this_thread::get_id());
    }, width);
    EXPECT_LE(threads.size(), static_cast<std::size_t>(width)) << "width " << width;
  }
}

TEST(ParallelFor, WidthOneRunsOnTheCallerAndPostsNoTask) {
  const obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  const std::uint64_t before = tasks.value();
  const auto caller = std::this_thread::get_id();
  std::atomic<int> foreign{0};
  exec::parallel_for(64, [&](index_t) {
    if (std::this_thread::get_id() != caller) foreign++;
  }, 1);
  EXPECT_EQ(tasks.value(), before);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_THROW(exec::parallel_for(4, [](index_t) {}, -1), ContractError);
}

}  // namespace
}  // namespace mrc
