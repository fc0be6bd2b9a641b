// ThreadPool correctness: completion, exception propagation, queued tasks
// draining past a blocked worker, repeated submit/join waves, and draining
// on destruction.
#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(ThreadPool, ManyWavesNoDeadlock) {
  ThreadPool pool(2);
  for (int wave = 0; wave < 50; ++wave) {
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 97; ++i) {
      futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) f.get();
    ASSERT_EQ(counter.load(), 97);
  }
}

TEST(ThreadPool, BlockedWorkerDoesNotStrandQueuedTasks) {
  // One worker is gated by a spinning task: every task queued behind it
  // must still run on the other workers, exactly once.
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
  // host the other workers can take far longer than any fixed number of
  // yields.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter.load(), 200)
      << "tasks behind the gated worker must run, not stay stuck";
  release.store(true);
  gate.get();
  for (auto& f : futures) f.get();
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
