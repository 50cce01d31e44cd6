#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace pgmr::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  // jthread joins on destruction; workers drain the queue first, so every
  // submit() future and parallel_for waiter completes before teardown.
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.emplace_back([packaged] { (*packaged)(); });
  }
  ready_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // The caller and its helpers claim indices from one counter, so the
  // caller never idles while iterations are left. A helper that a worker
  // dequeues after the last index was claimed finds nothing to do and never
  // touches `fn`, which may be gone by then.
  struct Join {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };
  auto join = std::make_shared<Join>();
  join->remaining = n;
  auto drain = [join, &fn, n] {
    for (std::size_t i = join->next.fetch_add(1); i < n;
         i = join->next.fetch_add(1)) {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard jl(join->mutex);
      if (error && !join->error) join->error = error;
      if (--join->remaining == 0) join->done.notify_all();
    }
  };
  const std::size_t helpers = std::min(n - 1, workers_.size());
  {
    std::lock_guard lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) tasks_.emplace_back(drain);
  }
  ready_.notify_all();
  drain();
  std::unique_lock lock(join->mutex);
  join->done.wait(lock, [&] { return join->remaining == 0; });
  if (join->error) std::rethrow_exception(join->error);
}

mr::Executor ThreadPool::executor() {
  return [this](std::size_t n, const std::function<void(std::size_t)>& fn) {
    parallel_for(n, fn);
  };
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and fully drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace pgmr::runtime
