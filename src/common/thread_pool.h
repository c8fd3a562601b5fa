// Fixed-size thread pool used to run selected clients' local training in
// parallel inside one global round (the edge servers of the prototype train
// concurrently, so the simulation should too).
//
// A process-wide shared() pool is created lazily on first use so every
// subsystem (Coordinator rounds, sharded evaluation, the sweep engine) draws
// from one set of workers instead of each spinning up its own.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace eefei {

namespace obs {
class Telemetry;
}  // namespace obs

namespace detail {
// Telemetry hooks, defined in thread_pool.cpp so this header stays free of
// obs includes.  submit() reads the installed Telemetry once and every
// hook for that task writes into that pointer, never into whatever is
// installed when a worker gets to it.  With telemetry disabled each is a
// pointer check and nothing else (pool_enqueue_ns returns 0 without
// reading a clock).
[[nodiscard]] obs::Telemetry* pool_telemetry();
[[nodiscard]] std::uint64_t pool_enqueue_ns(obs::Telemetry* telemetry);
void pool_note_queue_depth(obs::Telemetry* telemetry, std::size_t depth,
                           bool enqueued);

/// Times one pool task from inside its callable: the constructor records
/// pool.task_wait.ns, the destructor pool.task_run.ns.  The destructor runs
/// when the callable returns or unwinds, before the packaged_task stores
/// the outcome and makes the future ready, so the worker's last telemetry
/// write for the task lands before the submitter's get() returns.
class PoolTaskTimer {
 public:
  PoolTaskTimer(obs::Telemetry* telemetry, std::uint64_t enqueue_ns);
  ~PoolTaskTimer();
  PoolTaskTimer(const PoolTaskTimer&) = delete;
  PoolTaskTimer& operator=(const PoolTaskTimer&) = delete;

 private:
  obs::Telemetry* telemetry_;
  std::uint64_t start_ns_;
};

/// Test hook: every task sleeps this long between its body and its
/// completion, holding open the window in which a task's telemetry writes
/// race its submitter (zero, the default, disables it).
void set_pool_completion_delay_for_testing(std::chrono::microseconds delay);
}  // namespace detail

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lazily-created process-wide pool sized to hardware_concurrency.
  /// Never destroyed before main() returns; safe to call from any thread.
  [[nodiscard]] static ThreadPool& shared();

  /// Enqueues a task; the returned future rethrows any task exception.
  /// The future becomes ready only after the worker's last telemetry write
  /// for the task, so a caller may tear down its obs::Telemetry as soon as
  /// get() returns.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    obs::Telemetry* const telemetry = detail::pool_telemetry();
    const std::uint64_t enqueue_ns = detail::pool_enqueue_ns(telemetry);
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f), telemetry, enqueue_ns]() mutable -> R {
          const detail::PoolTaskTimer timer(telemetry, enqueue_ns);
          return fn();
        });
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push({[task] { (*task)(); }, telemetry});
      detail::pool_note_queue_depth(telemetry, tasks_.size(),
                                    /*enqueued=*/true);
    }
    cv_.notify_one();
    return result;
  }

  /// Enqueues fn with no future and no telemetry hooks.  Nothing waits
  /// for it: it may start after its submitter has returned, or run inline
  /// at pool destruction, so fn must own (or check the liveness of)
  /// everything it touches.  ml::ModelBank's pooled training posts its
  /// helpers this way so a helper that never gets a worker blocks nothing.
  void post(std::function<void()> fn);

  /// Applies fn(i) for i in [0, n) and waits for all.  Work is submitted in
  /// contiguous index chunks (a few per worker) instead of one task per
  /// index, so tiny per-index bodies don't drown in queue overhead.  Runs
  /// inline — same iteration order, same effects — when the pool has a
  /// single worker, when n <= 1, or when called from inside one of this
  /// pool's own workers (a nested parallel_for must not wait on a queue it
  /// is itself draining).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunk count parallel_for uses for n items on `workers` workers.  Every
  /// chunk covers at least one index (no empty submissions), small loops
  /// (n < 4·workers) get exactly one chunk per worker instead of one task
  /// per index, and large loops get 4 chunks per worker for load balance.
  /// Exposed for the chunking regression test.
  [[nodiscard]] static std::size_t plan_chunks(std::size_t n,
                                               std::size_t workers) {
    if (n == 0 || workers == 0) return n == 0 ? 0 : 1;
    if (n <= workers) return n;
    if (n < workers * 4) return workers;
    return workers * 4;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  /// A queued task and the Telemetry its submitter had installed.  The
  /// submitter is still waiting on the task's future when a worker dequeues
  /// it, so the pointer is live for the dequeue-depth note.
  struct QueuedTask {
    std::function<void()> run;
    obs::Telemetry* telemetry = nullptr;
  };

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace eefei
