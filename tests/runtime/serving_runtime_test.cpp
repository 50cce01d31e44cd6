// ServingRuntime end-to-end: batching, verdict parity with the serial
// path, shutdown semantics, metrics accounting, and RADE activation
// charging — all with small hand-built ensembles (no zoo cache needed).
#include "runtime/serving_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::runtime {
namespace {

nn::Network tiny_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 3, 1, 1);
  conv->init(rng);
  layers.push_back(std::move(conv));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(4 * 8 * 8, 3);
  fc->init(rng);
  layers.push_back(std::move(fc));
  return nn::Network("tiny", std::move(layers));
}

mr::Ensemble tiny_ensemble(int members) {
  mr::Ensemble e;
  for (int m = 0; m < members; ++m) {
    e.add(mr::Member(std::make_unique<prep::Identity>(),
                     tiny_net(static_cast<std::uint64_t>(m) + 1)));
  }
  return e;
}

/// Shared between a test and its LaneProbe members: the first member call
/// parks the batcher until the test releases it (a busy lane, without any
/// timing), and every call records the thread that ran it.
struct Lane {
  std::atomic<bool> armed{false};
  std::latch entered{1};
  std::latch release{1};
  std::mutex mutex;
  std::set<std::thread::id> threads;  // guarded by mutex
};

class LaneProbe final : public prep::Preprocessor {
 public:
  explicit LaneProbe(std::shared_ptr<Lane> lane) : lane_(std::move(lane)) {}
  std::string name() const override { return "ORG"; }
  Tensor apply(const Tensor& images) const override {
    {
      std::lock_guard guard(lane_->mutex);
      lane_->threads.insert(std::this_thread::get_id());
    }
    if (lane_->armed.exchange(false)) {
      lane_->entered.count_down();
      lane_->release.wait();
    }
    return images;
  }

 private:
  std::shared_ptr<Lane> lane_;
};

/// tiny_system(members) with every member behind a LaneProbe.
polygraph::PolygraphSystem probed_system(int members,
                                         const std::shared_ptr<Lane>& lane) {
  mr::Ensemble e;
  for (int m = 0; m < members; ++m) {
    e.add(mr::Member(std::make_unique<LaneProbe>(lane),
                     tiny_net(static_cast<std::uint64_t>(m) + 1)));
  }
  polygraph::PolygraphSystem sys(std::move(e));
  sys.set_thresholds({0.4F, 2});
  return sys;
}

polygraph::PolygraphSystem tiny_system(int members) {
  polygraph::PolygraphSystem sys(tiny_ensemble(members));
  sys.set_thresholds({0.4F, 2});
  return sys;
}

Tensor random_images(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, 1, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

std::vector<std::int64_t> random_labels(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (auto& l : labels) l = rng.randint(0, 2);
  return labels;
}

RuntimeOptions fast_options(std::size_t threads) {
  RuntimeOptions o;
  o.threads = threads;
  o.max_batch = 8;
  o.queue_capacity = 64;
  return o;
}

TEST(ServingRuntimeTest, ParallelVerdictsMatchSerialPredictExactly) {
  constexpr std::int64_t kN = 40;
  const Tensor images = random_images(kN, 7);

  // Reference: the serial single-sample path on an identical system.
  polygraph::PolygraphSystem reference = tiny_system(3);
  std::vector<polygraph::Verdict> expected;
  for (std::int64_t n = 0; n < kN; ++n) {
    expected.push_back(reference.predict(images.slice_sample(n)));
  }

  ServingRuntime rt(tiny_system(3), fast_options(3));
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < kN; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  for (std::int64_t n = 0; n < kN; ++n) {
    const polygraph::Verdict v = futures[static_cast<std::size_t>(n)].get();
    EXPECT_EQ(v.label, expected[static_cast<std::size_t>(n)].label) << n;
    EXPECT_EQ(v.reliable, expected[static_cast<std::size_t>(n)].reliable) << n;
    EXPECT_EQ(v.votes, expected[static_cast<std::size_t>(n)].votes) << n;
    EXPECT_EQ(v.activated, 3) << n;
  }
}

TEST(ServingRuntimeTest, ParallelEvaluateMatchesSerialOutcome) {
  // The determinism regression: the same system evaluated serially and
  // through a multi-thread executor must produce identical Outcome counts.
  constexpr std::int64_t kN = 60;
  const Tensor images = random_images(kN, 11);
  const auto labels = random_labels(kN, 12);

  polygraph::PolygraphSystem sys = tiny_system(4);
  const mr::Outcome serial = sys.evaluate(images, labels);

  ThreadPool pool(4);
  const mr::Outcome parallel = sys.evaluate(images, labels, pool.executor());
  EXPECT_EQ(parallel.tp, serial.tp);
  EXPECT_EQ(parallel.fp, serial.fp);
  EXPECT_EQ(parallel.unreliable, serial.unreliable);
  EXPECT_EQ(parallel.total, serial.total);
}

TEST(ServingRuntimeTest, RejectsNonSingleSampleShapes) {
  ServingRuntime rt(tiny_system(2), fast_options(1));
  EXPECT_THROW(rt.submit(random_images(2, 1)), std::invalid_argument);
  EXPECT_THROW(rt.submit(Tensor(Shape{1, 8, 8})), std::invalid_argument);
}

TEST(ServingRuntimeTest, SubmitAfterShutdownThrows) {
  ServingRuntime rt(tiny_system(2), fast_options(1));
  rt.shutdown();
  rt.shutdown();  // idempotent
  EXPECT_THROW(rt.submit(random_images(1, 2)), std::runtime_error);
  EXPECT_FALSE(rt.try_submit(random_images(1, 3)).has_value());
  EXPECT_GE(rt.metrics_snapshot().requests_rejected, 1U);
}

TEST(ServingRuntimeTest, ShutdownServesEveryAcceptedRequest) {
  ServingRuntime rt(tiny_system(2), fast_options(2));
  const Tensor images = random_images(10, 4);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < 10; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  rt.shutdown();  // must drain, not drop
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.requests_submitted, 10U);
  EXPECT_EQ(s.requests_completed, 10U);
}

TEST(ServingRuntimeTest, MetricsAccountForEveryRequestAndBatchCap) {
  constexpr std::size_t kN = 30;
  ServingRuntime rt(tiny_system(3), fast_options(2));
  const Tensor images = random_images(kN, 5);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < static_cast<std::int64_t>(kN); ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  for (auto& f : futures) f.get();

  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.requests_submitted, kN);
  EXPECT_EQ(s.requests_completed, kN);
  EXPECT_EQ(s.reliable + s.unreliable, kN);
  EXPECT_EQ(s.batch_size_sum, kN);  // every request in exactly one batch
  EXPECT_GE(s.batches, (kN + 7) / 8);
  EXPECT_LE(s.max_batch_size, 8U);  // max_batch respected
  // Full (non-staged) activation: every member charged for every request.
  for (const auto a : s.member_activations) EXPECT_EQ(a, kN);
  std::uint64_t hist_total = 0;
  for (const auto b : s.latency_buckets) hist_total += b;
  EXPECT_EQ(hist_total, kN);
}

TEST(ServingRuntimeTest, StagedSystemChargesOnlyActivatedMembers) {
  polygraph::PolygraphSystem sys(tiny_ensemble(4));
  const Tensor val = random_images(40, 20);
  sys.enable_staged(val, random_labels(40, 21));
  sys.set_thresholds({0.0F, 2});

  ServingRuntime rt(std::move(sys), fast_options(2));
  const Tensor images = random_images(12, 22);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < 12; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  std::uint64_t activated_total = 0;
  for (auto& f : futures) {
    const polygraph::Verdict v = f.get();
    EXPECT_GE(v.activated, 2);
    EXPECT_LE(v.activated, 4);
    activated_total += static_cast<std::uint64_t>(v.activated);
  }
  const MetricsSnapshot s = rt.metrics_snapshot();
  std::uint64_t charged = 0;
  for (const auto a : s.member_activations) charged += a;
  EXPECT_EQ(charged, activated_total);
}

TEST(ServingRuntimeTest, GeometryMismatchFailsOnlyThatRequest) {
  RuntimeOptions opts = fast_options(1);
  ServingRuntime rt(tiny_system(2), opts);
  auto good = rt.submit(random_images(1, 30));
  Rng rng(31);
  Tensor small(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < small.numel(); ++i) {
    small[i] = rng.uniform(0.0F, 1.0F);
  }
  auto bad = rt.submit(std::move(small));
  // Whether the 4x4 request shares a batch with the 8x8 one (head defines
  // the geometry, the mismatch is rejected individually) or lands in its
  // own batch (the net rejects the input), its future throws and the good
  // request is unaffected.
  EXPECT_NO_THROW(good.get());
  EXPECT_THROW(bad.get(), std::exception);
}

/// Parks the batcher on a first request, queues `k` more behind it, then
/// releases the lane; returns the metrics once every verdict is in.
MetricsSnapshot serve_backlog(std::size_t k) {
  auto lane = std::make_shared<Lane>();
  lane->armed = true;
  ServingRuntime rt(probed_system(2, lane), fast_options(1));
  const Tensor images = random_images(static_cast<std::int64_t>(k) + 1, 50);
  std::vector<std::future<polygraph::Verdict>> futures;
  futures.push_back(rt.submit(images.slice_sample(0)));
  lane->entered.wait();  // the lane is busy with the first request
  for (std::int64_t i = 1; i <= static_cast<std::int64_t>(k); ++i) {
    futures.push_back(rt.submit(images.slice_sample(i)));
  }
  lane->release.count_down();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  return rt.metrics_snapshot();
}

TEST(ServingRuntimeTest, QueuedBacklogIsServedAsOneBatch) {
  // No linger: the first request runs alone, and everything that queued
  // behind the busy lane (k <= max_batch) goes out as the next batch.
  const MetricsSnapshot s = serve_backlog(5);
  EXPECT_EQ(s.batches, 2U);
  EXPECT_EQ(s.max_batch_size, 5U);
  EXPECT_EQ(s.batch_size_sum, 6U);

  // A backlog past max_batch splits at the cap: 1, then 8, then 3.
  const MetricsSnapshot over = serve_backlog(11);
  EXPECT_EQ(over.batches, 3U);
  EXPECT_EQ(over.max_batch_size, 8U);
  EXPECT_EQ(over.batch_size_sum, 12U);
}

TEST(ServingRuntimeTest, MismatchedRequestInASharedBatchFailsAlone) {
  auto lane = std::make_shared<Lane>();
  lane->armed = true;
  ServingRuntime rt(probed_system(2, lane), fast_options(1));
  auto blocker = rt.submit(random_images(1, 60));
  lane->entered.wait();
  auto good = rt.submit(random_images(1, 61));
  auto bad = rt.submit(Tensor(Shape{1, 1, 4, 4}));
  lane->release.count_down();
  EXPECT_NO_THROW(blocker.get());
  EXPECT_NO_THROW(good.get());
  // Rejected as the odd one out of a shared batch, not by the network.
  try {
    bad.get();
    ADD_FAILURE() << "the mismatched request was served";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("differs from batch head"),
              std::string::npos)
        << e.what();
  }
  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.batches, 2U);
  EXPECT_EQ(s.batch_size_sum, 2U);
}

/// The distinct threads that ran a 4-member system's members while it
/// served 40 requests, and the runtime's batcher thread.
struct MemberThreads {
  std::set<std::thread::id> ran;
  std::thread::id batcher;
};

MemberThreads member_threads(std::size_t threads) {
  auto lane = std::make_shared<Lane>();
  MemberThreads out;
  {
    ServingRuntime rt(probed_system(4, lane), fast_options(threads));
    out.batcher = rt.batcher_thread();
    const Tensor images = random_images(40, 70);
    std::vector<std::future<polygraph::Verdict>> futures;
    for (std::int64_t n = 0; n < 40; ++n) {
      futures.push_back(rt.submit(images.slice_sample(n)));
    }
    for (auto& f : futures) f.get();
  }
  out.ran = lane->threads;
  return out;
}

TEST(ServingRuntimeTest, OneThreadRunsEveryMemberOnTheBatcher) {
  const MemberThreads t = member_threads(1);
  EXPECT_NE(t.batcher, std::thread::id());
  // The batcher itself runs every member: no pool, no handoff.
  EXPECT_EQ(t.ran, std::set<std::thread::id>{t.batcher});
}

TEST(ServingRuntimeTest, ThreadsBoundsTheThreadsThatRunMembers) {
  for (const std::size_t threads : {2U, 3U}) {
    const MemberThreads t = member_threads(threads);
    EXPECT_GE(t.ran.size(), 1U) << threads;
    EXPECT_LE(t.ran.size(), threads) << threads;  // batcher + threads - 1
    EXPECT_EQ(t.ran.count(std::this_thread::get_id()), 0U) << threads;
  }
}

TEST(ServingRuntimeTest, OptionsAreClampedToUsableValues) {
  RuntimeOptions opts;
  opts.threads = 0;
  opts.max_batch = 0;
  opts.queue_capacity = 0;
  ServingRuntime rt(tiny_system(2), opts);
  EXPECT_GE(rt.options().threads, 1U);
  EXPECT_GE(rt.options().max_batch, 1U);
  auto f = rt.submit(random_images(1, 40));
  EXPECT_NO_THROW(f.get());
}

}  // namespace
}  // namespace pgmr::runtime
