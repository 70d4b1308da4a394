#include "engine/thread_pool.hpp"

#include <exception>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rct::engine {
namespace {

// Pool observability: one relaxed atomic add per executed/stolen task, an
// idle-time histogram around the sleep path (cold), and a per-task span
// that records only while tracing is armed.
obs::Counter& tasks_run_counter() {
  static obs::Counter& c = obs::registry().counter("pool.tasks.run");
  return c;
}
obs::Counter& steal_counter() {
  static obs::Counter& c = obs::registry().counter("pool.tasks.stolen");
  return c;
}
obs::Histogram& idle_histogram() {
  static obs::Histogram& h = obs::registry().histogram("pool.worker.idle_seconds");
  return h;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t slot;
  {
    // Count the task before publishing it so a racing claimer can never see
    // a task the counters do not yet know about.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++unfinished_;
    ++unclaimed_;
    slot = next_++ % workers_.size();
  }
  {
    std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
    workers_[slot]->queue.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t home) {
  std::function<void()> task;
  const std::size_t n = workers_.size();
  for (std::size_t k = 0; k < n; ++k) {
    Worker& w = *workers_[(home + k) % n];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.queue.empty()) continue;
    if (k == 0) {  // own deque: newest first (cache-hot)
      task = std::move(w.queue.back());
      w.queue.pop_back();
    } else {  // steal: oldest first
      task = std::move(w.queue.front());
      w.queue.pop_front();
      steal_counter().add();
    }
    break;
  }
  if (!task) return false;
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    --unclaimed_;
  }
  tasks_run_counter().add();
  try {
    const obs::Span span("pool.task.run", "pool");
    task();
  } catch (const std::exception& e) {
    // Tasks own their exceptions; never let one kill the pool.  The engine
    // wraps analysis in its own catch, so anything landing here escaped a
    // task's OWN handling — worth a log line, since it used to vanish.
    obs::log::warn("pool.task.exception", {{"what", e.what()}});
  } catch (...) {
    obs::log::warn("pool.task.exception", {{"what", "non-std exception"}});
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    if (--unfinished_ == 0) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t home) {
  for (;;) {
    while (try_run_one(home)) {
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (unclaimed_ > 0) {
      // A task was counted but not yet published to its deque; let the
      // submitter finish the push instead of spinning on the lock.
      lock.unlock();
      std::this_thread::yield();
      continue;
    }
    if (stop_) return;
    const std::uint64_t idle_ns = obs::timestamp_ns();
    work_ready_.wait(lock, [this] { return stop_ || unclaimed_ > 0; });
    obs::record_wait("pool.worker.idle", "pool", idle_ns, &idle_histogram());
    if (stop_ && unclaimed_ == 0) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  // The lowest failing index wins, so the rethrown error does not depend on
  // scheduling.
  std::mutex mutex;
  std::size_t failed_at = n;
  std::exception_ptr error;
  for (std::size_t i = 0; i < n; ++i) {
    submit([&, i] {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (i < failed_at) {
          failed_at = i;
          error = std::current_exception();
        }
      }
    });
  }
  wait_idle();
  if (error) std::rethrow_exception(error);
}

}  // namespace rct::engine
