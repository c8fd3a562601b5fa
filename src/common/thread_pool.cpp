#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/telemetry.h"

namespace eefei {

namespace {
// Which pool (if any) owns the current thread.  Lets parallel_for detect
// re-entrant calls from its own workers and degrade to inline execution
// instead of deadlocking on its own queue.
thread_local const ThreadPool* tls_worker_pool = nullptr;

std::atomic<std::int64_t> g_completion_delay_us{0};
}  // namespace

namespace detail {

obs::Telemetry* pool_telemetry() { return obs::telemetry(); }

std::uint64_t pool_enqueue_ns(obs::Telemetry* telemetry) {
  return telemetry != nullptr ? telemetry->tracer.wall_now_ns() : 0;
}

void pool_note_queue_depth(obs::Telemetry* telemetry, std::size_t depth,
                           bool enqueued) {
  if (telemetry == nullptr) return;
  telemetry->metrics.gauge("pool.queue_depth")
      .set(static_cast<double>(depth));
  if (enqueued) telemetry->metrics.counter("pool.tasks").increment();
}

PoolTaskTimer::PoolTaskTimer(obs::Telemetry* telemetry,
                             std::uint64_t enqueue_ns)
    : telemetry_(telemetry),
      start_ns_(telemetry_ != nullptr ? telemetry_->tracer.wall_now_ns() : 0) {
  if (telemetry_ != nullptr && enqueue_ns != 0 && start_ns_ >= enqueue_ns) {
    telemetry_->metrics.sketch("pool.task_wait.ns")
        .record(static_cast<double>(start_ns_ - enqueue_ns));
  }
}

PoolTaskTimer::~PoolTaskTimer() {
  const std::int64_t delay_us =
      g_completion_delay_us.load(std::memory_order_relaxed);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics.sketch("pool.task_run.ns")
        .record(static_cast<double>(telemetry_->tracer.wall_now_ns() -
                                    start_ns_));
  }
}

void set_pool_completion_delay_for_testing(std::chrono::microseconds delay) {
  g_completion_delay_us.store(delay.count(), std::memory_order_relaxed);
}

}  // namespace detail

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);  // leaks nothing: joined at static destruction
  return pool;
}

bool ThreadPool::on_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      detail::pool_note_queue_depth(task.telemetry, tasks_.size(),
                                    /*enqueued=*/false);
    }
    task.run();
  }
}

void ThreadPool::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push({std::move(fn), nullptr});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  // Zero-length loops must be free: no submission lock, no queue traffic,
  // no fn invocation (regression-tested — an earlier version still paid
  // the submission path here).
  if (n == 0) return;
  if (n == 1 || size() <= 1 || on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  obs::Tracer::WallSpan span(obs::tracer(), "pool.parallel_for", "host.pool",
                             {{"n", static_cast<double>(n)}});
  // A few chunks per worker balances load without per-index queue traffic.
  // plan_chunks keeps every chunk non-empty and collapses small loops
  // (workers < n < 4·workers) to one chunk per worker — the old
  // min(n, 4·workers) rule queued n single-index tasks there, which for a
  // handful of ModelBank chunks cost more in queue traffic than the work.
  const std::size_t chunks = plan_chunks(n, size());
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t ci = 0; ci < chunks; ++ci) {
    const std::size_t begin = n * ci / chunks;
    const std::size_t end = n * (ci + 1) / chunks;
    futures.push_back(submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace eefei
