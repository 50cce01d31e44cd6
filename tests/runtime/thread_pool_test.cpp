// ThreadPool: submit/parallel_for semantics, error propagation, and the
// mr::Executor seam the ensemble uses.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pgmr::runtime {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1U);
}

TEST(ThreadPoolTest, SubmitRunsTaskAndSignalsFuture) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.submit([&] { ran.store(7); });
  f.get();
  EXPECT_EQ(ran.load(), 7);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterAllIterationsFinish) {
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  // No iteration is abandoned mid-flight: all the non-throwing ones ran.
  EXPECT_EQ(finished.load(), 15);
}

TEST(ThreadPoolTest, ParallelForRunsIterationsOnTheCallingThread) {
  ThreadPool pool(1);
  // Park the only worker: every iteration must then run on the caller,
  // each exactly once, without waiting for the worker to come free. (A
  // pool that left the caller idle would wait for the parked worker; the
  // 30 s bound turns that hang into a failure.)
  std::latch release(1);
  auto parked = pool.submit([&] { release.wait(); });
  constexpr std::size_t kN = 16;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::thread::id> ran_on(kN);
  std::promise<void> finished;
  std::future<void> returned = finished.get_future();
  std::thread caller([&] {
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1);
      ran_on[i] = std::this_thread::get_id();
    });
    finished.set_value();
  });
  const std::thread::id caller_id = caller.get_id();
  const bool on_time =
      returned.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.count_down();
  caller.join();
  parked.get();
  EXPECT_TRUE(on_time);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(ran_on[i], caller_id) << i;
  }

  // With the worker free, the caller and the worker share the indices:
  // still each exactly once, on at most two threads.
  std::vector<std::atomic<int>> again(kN);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  pool.parallel_for(kN, [&](std::size_t i) {
    again[i].fetch_add(1);
    std::lock_guard guard(mutex);
    threads.insert(std::this_thread::get_id());
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(again[i].load(), 1) << i;
  EXPECT_LE(threads.size(), 2U);
}

TEST(ThreadPoolTest, ParallelForZeroAndOneAreInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::size_t i) { count += static_cast<int>(i) + 1; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ExecutorSeamMatchesSerialSemantics) {
  ThreadPool pool(4);
  const mr::Executor exec = pool.executor();
  std::vector<int> out(32, 0);
  exec(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor joins; queued tasks must not be dropped
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace pgmr::runtime
