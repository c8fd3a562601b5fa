#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"

namespace eefei {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<double> out(kN, 0.0);
  pool.parallel_for(kN, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kN) *
                              static_cast<double>(kN - 1));
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForZeroIsFree) {
  // Regression: a zero-length loop must return before the submission path —
  // no queue traffic, no fn invocation.  The pool.tasks counter observes
  // queue traffic directly, so a regression that re-introduces submission
  // for n == 0 trips the counter check, not just the invocation check.
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(telemetry.metrics.snapshot().counter_value("pool.tasks"), 0.0);
}

TEST(ThreadPool, QueueMetricsCountSubmittedTasks) {
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  const auto snapshot = telemetry.metrics.snapshot();
  EXPECT_EQ(snapshot.counter_value("pool.tasks"), 32.0);
  // Every task's wait and run latency landed in the sketches.
  for (const char* name : {"pool.task_wait.ns", "pool.task_run.ns"}) {
    const obs::SketchSnapshot* sketch = snapshot.sketch(name);
    ASSERT_NE(sketch, nullptr) << name;
    EXPECT_EQ(sketch->count, 32u) << name;
  }
  // Gauge exists and has settled at zero depth after the drain.
  EXPECT_EQ(snapshot.gauge_value("pool.queue_depth"), 0.0);
}

TEST(ThreadPool, PlanChunksNeverProducesEmptyChunks) {
  // Regression: chunks = min(n, 4·workers) queued one single-index task per
  // item whenever workers < n < 4·workers — for a handful of ModelBank
  // chunks the queue traffic outweighed the work.  plan_chunks must keep
  // every chunk non-empty (chunks <= n) and cap queue traffic at one chunk
  // per worker until the loop is big enough to split 4-ways.
  for (std::size_t workers = 1; workers <= 16; ++workers) {
    for (std::size_t n = 0; n <= workers * 6; ++n) {
      const std::size_t chunks = ThreadPool::plan_chunks(n, workers);
      if (n == 0) {
        EXPECT_EQ(chunks, 0u);
        continue;
      }
      ASSERT_GE(chunks, 1u) << "n=" << n << " workers=" << workers;
      ASSERT_LE(chunks, n) << "n=" << n << " workers=" << workers;
      // The begin/end arithmetic parallel_for uses must cover [0, n) with
      // no empty chunk.
      std::size_t covered = 0;
      for (std::size_t ci = 0; ci < chunks; ++ci) {
        const std::size_t begin = n * ci / chunks;
        const std::size_t end = n * (ci + 1) / chunks;
        ASSERT_LT(begin, end) << "empty chunk " << ci << " of " << chunks
                              << " for n=" << n << " workers=" << workers;
        covered += end - begin;
      }
      ASSERT_EQ(covered, n);
      // Small loops: exactly one chunk per worker (or per item), never the
      // old one-task-per-index spam.
      if (n > workers && n < workers * 4) {
        EXPECT_EQ(chunks, workers) << "n=" << n << " workers=" << workers;
      }
      if (n >= workers * 4) {
        EXPECT_EQ(chunks, workers * 4);
      }
    }
  }
  // Defensive: a zero-worker plan still yields a runnable (inline) chunk.
  EXPECT_EQ(ThreadPool::plan_chunks(5, 0), 1u);
}

TEST(ThreadPool, SmallParallelForCoversAllIndicesOnce) {
  // The workers < n < 4·workers regime the chunking fix targets.
  ThreadPool pool(4);
  constexpr std::size_t kN = 6;
  std::array<std::atomic<int>, kN> hits{};
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins
  // All tasks submitted before destruction must have run.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TelemetryMayDieAsSoonAsTheFutureIsReady) {
  // Regression: workers used to record pool.task_run.ns after the task had
  // already made its future ready, so a caller that tore down its
  // Telemetry right after get() raced the worker's write (a use-after-free
  // under ASan).  The test hook stalls every worker between the task body
  // and its completion, holding that window open: the future must not be
  // ready until the worker is done with the Telemetry.
  struct DelayGuard {
    DelayGuard() {
      detail::set_pool_completion_delay_for_testing(
          std::chrono::milliseconds(20));
    }
    ~DelayGuard() {
      detail::set_pool_completion_delay_for_testing(
          std::chrono::microseconds(0));
    }
  };
  ThreadPool pool(2);
  const DelayGuard delay;
  for (int rep = 0; rep < 3; ++rep) {
    auto telemetry = std::make_unique<obs::Telemetry>();
    {
      const obs::TelemetryScope scope(*telemetry);
      auto f = pool.submit([] { return 7; });
      EXPECT_EQ(f.get(), 7);
      std::atomic<int> calls{0};
      pool.parallel_for(4, [&](std::size_t) { calls.fetch_add(1); });
      EXPECT_EQ(calls.load(), 4);
    }
    // Every write for the finished tasks has landed before get() returned.
    const auto snapshot = telemetry->metrics.snapshot();
    for (const char* name : {"pool.task_wait.ns", "pool.task_run.ns"}) {
      const obs::SketchSnapshot* sketch = snapshot.sketch(name);
      ASSERT_NE(sketch, nullptr) << name;
      EXPECT_EQ(sketch->count, 3u) << name;
    }
    telemetry.reset();
  }
}

}  // namespace
}  // namespace eefei
