// ThreadPool correctness: completion, exception propagation, parallel_for
// coverage, and stress under contention.
#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qkdpp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(2);
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 64, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&ran](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 3, 100, [&total](std::size_t lo, std::size_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ParallelForSum) {
  ThreadPool pool(2);
  const std::size_t n = 1 << 16;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, n, 1024, [&sum](std::size_t lo, std::size_t hi) {
    std::uint64_t local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), std::uint64_t{n} * (n - 1) / 2);
}

TEST(ThreadPool, ManyWavesNoDeadlock) {
  ThreadPool pool(2);
  for (int wave = 0; wave < 50; ++wave) {
    std::atomic<int> counter{0};
    pool.parallel_for(0, 97, 3, [&counter](std::size_t lo, std::size_t hi) {
      counter += static_cast<int>(hi - lo);
    });
    ASSERT_EQ(counter.load(), 97);
  }
}

TEST(ThreadPool, GlobalPoolSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

TEST(ThreadPool, StatsCountSubmittedAndExecuted) {
  ThreadPool pool(2);
  const ThreadPool::Stats before = pool.stats();
  EXPECT_EQ(before.threads, 2u);
  EXPECT_EQ(before.submitted, 0u);
  EXPECT_EQ(before.executed, 0u);

  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();

  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.submitted, 64u);
  EXPECT_EQ(after.executed, 64u);
  EXPECT_EQ(after.queue_depth, 0u) << "everything claimed after the joins";
  EXPECT_LE(after.stolen, after.executed);
}

TEST(ThreadPool, StatsSeeQueueDepthAndBusyWorkersMidRun) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  auto gate = pool.submit([&] {
    running.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // A task parked behind the gate on a 1-thread pool must show up as
  // queued; the gate itself as a busy worker.
  auto parked = pool.submit([] {});
  while (!running.load()) std::this_thread::yield();
  const ThreadPool::Stats mid = pool.stats();
  EXPECT_EQ(mid.busy_workers, 1u);
  EXPECT_GE(mid.queue_depth, 1u);
  release.store(true);
  gate.get();
  parked.get();
  // A task counts itself as executed before its future becomes ready.
  EXPECT_EQ(pool.stats().executed, 2u);
}

TEST(ThreadPool, WorkStealingDrainsAnUnbalancedLoad) {
  // Round-robin placement plus a blocked worker forces the other workers
  // to steal: every task still runs exactly once and the steal counter
  // moves. (With 4 workers and one of them gated, tasks round-robined
  // onto the gated worker's deque can only finish via steals.)
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  auto gate = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  // Wait on wall time, not a spin count: under a sanitizer on a loaded
  // host the thieves can take far longer than any fixed number of yields.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter.load(), 200)
      << "tasks behind the gated worker must be stolen, not stuck";
  release.store(true);
  gate.get();
  for (auto& f : futures) f.get();
  EXPECT_GE(pool.stats().stolen, 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A worker that blocks in parallel_for must help drain the pool; on a
  // 1-thread pool every chunk of the inner loop runs through that help
  // path or inline.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 8, 1, [&](std::size_t ilo, std::size_t ihi) {
        total += static_cast<int>(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    std::atomic<bool> release{false};
    pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran] { ++ran; });
    }
    release.store(true);
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace qkdpp
