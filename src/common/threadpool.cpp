#include "common/threadpool.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qkdpp {

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
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    QKDPP_REQUIRE(!stopping_, "submit on a stopping ThreadPool");
    tasks_.push_back(std::move(packaged));
  }
  work_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!has_work_or_stopping_locked()) work_.wait(lock);
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // a throwing task stores its exception in the future
  }
}

}  // namespace qkdpp
