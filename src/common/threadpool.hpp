// Fixed-size thread pool, used by the link orchestrator (one task per link
// per run) and held by the device set. Task-based (CP.4): callers submit
// work items, never manage threads. One mutex guards one FIFO queue;
// destruction joins all workers after draining it.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace qkdpp {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves when it has run (exceptions
  /// propagate through the future).
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();
  bool has_work_or_stopping_locked() const QKD_REQUIRES(mutex_) {
    return stopping_ || !tasks_.empty();
  }

  Mutex mutex_{LockRank::kPool, "pool.queue"};
  CondVar work_;
  std::deque<std::packaged_task<void()>> tasks_ QKD_GUARDED_BY(mutex_);
  bool stopping_ QKD_GUARDED_BY(mutex_) = false;
  /// Declared last: workers start in the constructor body and read the
  /// members above.
  std::vector<std::thread> workers_;
};

}  // namespace qkdpp
