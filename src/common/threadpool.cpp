#include "common/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace qkdpp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_ = std::make_unique<WorkerQueue[]>(threads);
  queue_count_ = threads;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(idle_mutex_);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  QKDPP_REQUIRE(!stopping_.load(std::memory_order_acquire),
                "submit on a stopping ThreadPool");
  // Count the task inside its packaged_task, before the promise is set, on
  // the normal and the throwing path alike: a caller that has joined the
  // future then always finds the task in stats().executed.
  std::packaged_task<void()> packaged([this, task = std::move(task)] {
    struct CountExecuted {
      std::atomic<std::uint64_t>& executed;
      // relaxed: observability counter; the promise set after this
      // destructor publishes the increment to whoever joins the future.
      ~CountExecuted() { executed.fetch_add(1, std::memory_order_relaxed); }
    } count{executed_};
    task();
  });
  auto future = packaged.get_future();

  // Raise pending_ before the push so a claimer can never decrement below
  // zero, and before reading idle_count_ (Dekker with the parking path): a
  // worker that missed this task has already raised idle_count_, so we
  // notify; a worker that hasn't yet will see pending_ > 0 and not sleep.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  // relaxed: round-robin cursor - only fair distribution matters, and the
  // queue push below is ordered by the queue mutex.
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queue_count_;
  {
    MutexLock lock(queues_[target].mutex);
    queues_[target].tasks.push_back(std::move(packaged));
  }
  // relaxed: observability counter, read only by stats() snapshots.
  submitted_.fetch_add(1, std::memory_order_relaxed);

  if (idle_count_.load(std::memory_order_seq_cst) > 0) {
    // Take the mutex so the notify can't fall between a parking worker's
    // predicate check and its actual sleep.
    MutexLock lock(idle_mutex_);
    idle_cv_.notify_one();
  }
  return future;
}

bool ThreadPool::claim_and_run(std::size_t my_index) {
  const std::size_t n = queue_count_;
  std::optional<std::packaged_task<void()>> task;
  bool was_steal = false;

  if (my_index != kNoOwner) {
    WorkerQueue& own = queues_[my_index];
    MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      task.emplace(std::move(own.tasks.front()));
      own.tasks.pop_front();
    }
  }
  if (!task) {
    const std::size_t start = my_index == kNoOwner ? 0 : my_index + 1;
    for (std::size_t j = 0; j < n && !task; ++j) {
      WorkerQueue& victim = queues_[(start + j) % n];
      MutexLock lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task.emplace(std::move(victim.tasks.back()));
        victim.tasks.pop_back();
        was_steal = true;
      }
    }
  }
  if (!task) return false;

  pending_.fetch_sub(1, std::memory_order_seq_cst);
  // relaxed: stolen_/busy_workers_ are observability counters, read only
  // by stats() snapshots - no data is published through them.
  if (was_steal) stolen_.fetch_add(1, std::memory_order_relaxed);
  busy_workers_.fetch_add(1, std::memory_order_relaxed);
  (*task)();  // counts itself in executed_ (see submit)
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ThreadPool::worker_loop(std::size_t my_index) {
  for (;;) {
    if (claim_and_run(my_index)) continue;

    MutexLock lock(idle_mutex_);
    // Raise idle_count_ before re-checking pending_ (the other half of
    // the Dekker protocol in submit()). The wait predicate reads only
    // atomics, so the lambda is safe under thread-safety analysis.
    idle_count_.fetch_add(1, std::memory_order_seq_cst);
    idle_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_seq_cst) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    idle_count_.fetch_sub(1, std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst) &&
        pending_.load(std::memory_order_seq_cst) == 0) {
      return;  // stopping and drained
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t total = end - begin;
  const std::size_t max_chunks = thread_count() + 1;
  const std::size_t chunk =
      std::max(grain, (total + max_chunks - 1) / max_chunks);

  std::vector<std::future<void>> futures;
  std::size_t lo = begin + std::min(total, chunk);  // first chunk runs inline
  while (lo < end) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(submit([&body, lo, hi] { body(lo, hi); }));
    lo = hi;
  }
  body(begin, begin + std::min(total, chunk));
  for (auto& f : futures) {
    // Help drain the pool while waiting so a worker blocked here (nested
    // parallel_for) still makes progress even when every thread is busy.
    using namespace std::chrono_literals;
    while (f.wait_for(0s) != std::future_status::ready) {
      if (!claim_and_run(kNoOwner)) f.wait_for(100us);
    }
    f.get();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.threads = queue_count_;
  // relaxed: stats() is an observability snapshot - fields may be mutually
  // inconsistent by a task or two, and no caller synchronizes through it.
  s.queue_depth = pending_.load(std::memory_order_relaxed);
  s.busy_workers = busy_workers_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace qkdpp
