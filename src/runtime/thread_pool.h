// ThreadPool: a fixed set of std::jthread workers draining a shared task
// queue. Built for the serving runtime's per-member fan-out but generic —
// future sharding/async PRs can reuse it as-is.
//
// Two entry points:
//   submit(fn)         fire-and-track; returns a future for join/rethrow.
//   parallel_for(n,fn) blocking indexed fan-out in which the calling thread
//                      runs iterations too; rethrows the first iteration
//                      failure. Exposed as an mr::Executor via executor(),
//                      which is how the ensemble runs members across
//                      workers without depending on this header.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "mr/executor.h"

namespace pgmr::runtime {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(std::size_t threads);

  /// Waits for queued tasks' completion signals to fire, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one task; the future reports completion or rethrows.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(0..n-1) across the calling thread and up to n-1 workers, which
  /// claim indices from a shared counter, and waits for all of them. A
  /// caller that finds no worker free runs every iteration itself. The
  /// first exception (lowest-indexed is not guaranteed) is rethrown after
  /// every iteration finished, so no fn is ever abandoned mid-flight.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// This pool as the ensemble-facing parallel-for seam.
  mr::Executor executor();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

}  // namespace pgmr::runtime
