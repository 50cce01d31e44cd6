// Bounded MPMC queue semantics: ordering, backpressure, close/drain.
#include "runtime/mpmc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pgmr::runtime {
namespace {

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(MpmcQueueTest, ZeroCapacityIsClampedToOne) {
  MpmcQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1U);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));  // full
  EXPECT_EQ(q.pop().value(), 7);
}

TEST(MpmcQueueTest, TryPushRefusesWhenFullOrClosed) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(4));
}

TEST(MpmcQueueTest, CloseDrainsRemainingItemsThenReturnsNullopt) {
  MpmcQueue<int> q(4);
  q.push(10);
  q.push(20);
  q.close();
  EXPECT_FALSE(q.push(30));  // rejected after close
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);  // stays drained
}

TEST(MpmcQueueTest, PopBatchTakesWhatIsQueuedUpToMax) {
  MpmcQueue<int> q(8);
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 2), 2U);  // capped, FIFO
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pop_batch(out, 8), 1U);  // takes what is there, no waiting
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  q.close();
  EXPECT_EQ(q.pop_batch(out, 8), 0U);  // closed and drained
}

TEST(MpmcQueueTest, CloseWakesBlockedPush) {
  MpmcQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<int> result{-1};
  std::thread pusher([&] { result.store(q.push(2) ? 1 : 0); });
  // The pusher is blocked on a full queue; close() must release it with a
  // failed push rather than deadlock.
  q.close();
  pusher.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(q.pop().value(), 1);  // the queued item survives close
}

TEST(MpmcQueueTest, PopUnblocksWhenItemArrives) {
  MpmcQueue<int> q(1);
  std::thread popper([&] { EXPECT_EQ(q.pop().value(), 42); });
  q.push(42);
  popper.join();
}

TEST(MpmcQueueTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 200;
  MpmcQueue<int> q(8);  // smaller than the load, so pushes block
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value seen exactly once
}

}  // namespace
}  // namespace pgmr::runtime
