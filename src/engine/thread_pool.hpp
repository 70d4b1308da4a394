#pragma once
// Fixed-size thread pool with per-worker task deques and work stealing.
//
// Each worker owns a deque guarded by its own mutex: a worker pops its own
// tasks from the back (LIFO, cache-hot) and, when its deque is empty, steals
// from a sibling's front (FIFO, oldest-first).  submit() round-robins new
// tasks across the deques, so contention is spread instead of funnelled
// through one global lock, while the strict mutex-per-deque design stays
// verifiable by ThreadSanitizer.
//
// Tasks must handle their own exceptions; anything that escapes a submit()
// task is logged and swallowed so one bad task can never take the pool (or
// the process) down.  parallel_for() instead hands the failure back to its
// caller.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rct::engine {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 selects std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains: blocks until every submitted task has completed, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; tasks may themselves call submit().
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

  /// Convenience: runs fn(0), ..., fn(n-1) across the pool and waits, then
  /// rethrows the exception of the lowest index that threw, if any (every
  /// index runs either way).  Requires the pool to be otherwise idle
  /// (shares wait_idle()).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> queue;
  };

  void worker_loop(std::size_t home);
  /// Pops one task (own deque first, then steals) and runs it.
  bool try_run_one(std::size_t home);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Lifecycle counters, all guarded by sleep_mutex_.
  std::mutex sleep_mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::size_t unfinished_ = 0;  ///< submitted, not yet completed
  std::size_t unclaimed_ = 0;   ///< queued, not yet popped by a worker
  bool stop_ = false;

  std::size_t next_ = 0;  ///< round-robin submit cursor (guarded by sleep_mutex_)
};

}  // namespace rct::engine
