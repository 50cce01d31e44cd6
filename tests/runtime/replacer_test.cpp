// MemberReplacer unit coverage: fenced slots are rebuilt through the
// factory and hot-swapped back into service, factory failures burn
// bounded attempts, breaker escalation (fence_after_quarantines) feeds
// the same recovery path, and the quorum gauge tracks it all.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "nn/dense.h"
#include "nn/pooling.h"
#include "runtime/serving_runtime.h"

namespace pgmr::runtime {
namespace {

using std::chrono::milliseconds;

/// Flatten + Dense(2,2) identity net: logits == input.
nn::Network identity_net() {
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(2, 2);
  Tensor* w = fc->params()[0];
  (*w)[0] = 1.0F;
  (*w)[3] = 1.0F;
  layers.push_back(std::move(fc));
  return nn::Network("identity", std::move(layers));
}

class ReplacerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = (std::filesystem::temp_directory_path() /
                ("pgmr_replacer_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                 ".net"))
                   .string();
    identity_net().save(archive_);
  }
  void TearDown() override { std::remove(archive_.c_str()); }

  polygraph::PolygraphSystem archive_system(int members) {
    mr::Ensemble e;
    for (int m = 0; m < members; ++m) {
      mr::Member member(std::make_unique<prep::Identity>(),
                        nn::Network::load(archive_));
      member.set_archive_source(archive_);
      e.add(std::move(member));
    }
    polygraph::PolygraphSystem sys(std::move(e));
    sys.set_thresholds({0.5F, members});
    return sys;
  }

  /// Rebuilds a slot from the shared archive; counts invocations.
  ReplacementFactory archive_factory() {
    return [this](std::size_t, int, std::stop_token)
               -> std::optional<mr::Member> {
      ++factory_calls_;
      mr::Member fresh(std::make_unique<prep::Identity>(),
                       nn::Network::load(archive_));
      fresh.set_archive_source(archive_);
      return fresh;
    };
  }

  static RuntimeOptions base_options() {
    RuntimeOptions o;
    o.threads = 2;
    o.max_batch = 4;
    o.protection = nn::Protection::full;
    return o;
  }

  static Tensor confident_input() {
    Tensor x(Shape{1, 1, 1, 2});
    x[0] = 5.0F;  // logits (5, 0): every healthy member votes class 0
    return x;
  }

  static polygraph::Verdict serve_one(ServingRuntime& rt) {
    return rt.submit(confident_input()).get();
  }

  /// Corrupts member m beyond healing: CRC broken + unreadable archive,
  /// so the next scrub must fence it.
  void kill_member(ServingRuntime& rt, std::size_t m) {
    rt.with_swap_lock([&rt, m, this] {
      mr::Member& victim = rt.system().ensemble().member(m);
      Tensor* w = victim.net().mutable_network().params()[0];
      (*w)[0] = -(*w)[0];
      victim.set_archive_source(archive_ + ".gone");
    });
  }

  std::string archive_;
  std::atomic<int> factory_calls_{0};
};

TEST_F(ReplacerTest, ReplaceNowRestoresAFencedSlot) {
  RuntimeOptions opts = base_options();
  opts.replacement.factory = archive_factory();  // enabled stays false
  ServingRuntime rt(archive_system(3), opts);
  EXPECT_FALSE(rt.replacer().running());  // disabled: no background thread
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 3U);

  kill_member(rt, 1);
  EXPECT_EQ(rt.scrub_now().fenced, 1U);
  EXPECT_EQ(rt.health().state(1), MemberState::fenced);
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 2U);
  EXPECT_TRUE(serve_one(rt).degraded);

  const ReplaceReport report = rt.replace_now();
  EXPECT_EQ(report.attempted, 1U);
  EXPECT_EQ(report.replaced, 1U);
  EXPECT_EQ(report.failed, 0U);
  EXPECT_EQ(factory_calls_.load(), 1);

  // The slot probes half-open and the very next verdict is full-quorum.
  EXPECT_EQ(rt.health().state(1), MemberState::half_open);
  const polygraph::Verdict v = serve_one(rt);
  EXPECT_EQ(v.label, 0);
  EXPECT_FALSE(v.degraded);
  EXPECT_EQ(rt.health().state(1), MemberState::healthy);

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.replacements_started, 1U);
  EXPECT_EQ(snap.replacements_completed, 1U);
  EXPECT_EQ(snap.replacements_failed, 0U);
  EXPECT_EQ(snap.quorum_size, 3U);

  // The replacement is a first-class member: the scrubber checks it again.
  EXPECT_EQ(rt.scrub_now().members_checked, 3U);
}

TEST_F(ReplacerTest, WithoutAFactoryReplaceNowIsInert) {
  ServingRuntime rt(archive_system(2), base_options());
  kill_member(rt, 0);
  rt.scrub_now();
  const ReplaceReport report = rt.replace_now();
  EXPECT_EQ(report.attempted, 0U);
  EXPECT_EQ(report.replaced, 0U);
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);
}

TEST_F(ReplacerTest, FactoryFailuresBurnBoundedAttempts) {
  RuntimeOptions opts = base_options();
  opts.replacement.max_attempts = 2;
  opts.replacement.factory = [this](std::size_t, int attempt,
                                    std::stop_token)
      -> std::optional<mr::Member> {
    ++factory_calls_;
    EXPECT_EQ(attempt, factory_calls_.load() - 1);  // 0 then 1
    if (factory_calls_.load() == 1) return std::nullopt;  // "no variant"
    throw std::runtime_error("training exploded");        // also a failure
  };
  ServingRuntime rt(archive_system(3), opts);

  kill_member(rt, 2);
  rt.scrub_now();
  ReplaceReport report = rt.replace_now();
  EXPECT_EQ(report.attempted, 1U);
  EXPECT_EQ(report.failed, 1U);
  report = rt.replace_now();
  EXPECT_EQ(report.attempted, 1U);
  EXPECT_EQ(report.failed, 1U);

  // Attempts exhausted: the slot is given up on, the factory rests.
  report = rt.replace_now();
  EXPECT_EQ(report.attempted, 0U);
  EXPECT_EQ(factory_calls_.load(), 2);
  EXPECT_EQ(rt.health().state(2), MemberState::fenced);
  EXPECT_EQ(rt.metrics_snapshot().replacements_failed, 2U);
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 2U);
}

TEST_F(ReplacerTest, BreakerEscalationFencesAndReplacerRecovers) {
  RuntimeOptions opts = base_options();
  opts.quarantine_after = 1;
  opts.quarantine_cooldown = milliseconds(0);
  opts.fence_after_quarantines = 2;
  opts.replacement.factory = archive_factory();
  ServingRuntime rt(archive_system(3), opts);

  // Corrupt weights but KEEP the archive unreadable-free: the breaker, not
  // the scrubber, must do the fencing here (no scrub sweeps run at all).
  rt.with_swap_lock([&rt] {
    Tensor* w = rt.system().ensemble().member(0).net().mutable_network()
                    .params()[0];
    (*w)[0] = -(*w)[0];
  });

  // Each batch: ABFT drops the vote, on_result records the fault. Trip 1
  // quarantines; with zero cooldown the next batch probes and trip 2 hits
  // fence_after_quarantines — the breaker escalates to fenced.
  serve_one(rt);
  EXPECT_EQ(rt.health().state(0), MemberState::quarantined);
  serve_one(rt);
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 2U);

  const ReplaceReport report = rt.replace_now();
  EXPECT_EQ(report.replaced, 1U);
  EXPECT_FALSE(serve_one(rt).degraded);
  EXPECT_EQ(rt.health().state(0), MemberState::healthy);
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 3U);
}

TEST_F(ReplacerTest, BackgroundLoopRecoversAfterScrubFence) {
  RuntimeOptions opts = base_options();
  opts.scrub_interval = milliseconds(3);
  opts.replacement.enabled = true;
  opts.replacement.poll = milliseconds(3);
  opts.replacement.factory = archive_factory();
  ServingRuntime rt(archive_system(3), opts);
  EXPECT_TRUE(rt.scrubber().running());
  EXPECT_TRUE(rt.replacer().running());

  kill_member(rt, 1);

  // No manual sweeps: scrub fences, fence notifies, replacer swaps.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.metrics_snapshot().replacements_completed == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background replacer never recovered the slot";
    std::this_thread::sleep_for(milliseconds(2));
  }
  const polygraph::Verdict v = serve_one(rt);
  EXPECT_EQ(v.label, 0);
  EXPECT_FALSE(v.degraded);
  EXPECT_EQ(rt.metrics_snapshot().quorum_size, 3U);

  rt.shutdown();
  EXPECT_FALSE(rt.replacer().running());
}

TEST_F(ReplacerTest, ShutdownCancelsInFlightFactory) {
  RuntimeOptions opts = base_options();
  opts.scrub_interval = milliseconds(3);
  opts.replacement.enabled = true;
  opts.replacement.poll = milliseconds(3);
  opts.replacement.factory = [this](std::size_t, int,
                                    std::stop_token cancel)
      -> std::optional<mr::Member> {
    ++factory_calls_;
    // A "training run" that only finishes if nobody cancels it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!cancel.stop_requested() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    if (cancel.stop_requested()) return std::nullopt;
    mr::Member fresh(std::make_unique<prep::Identity>(),
                     nn::Network::load(archive_));
    return fresh;
  };
  ServingRuntime rt(archive_system(2), opts);

  kill_member(rt, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (factory_calls_.load() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(milliseconds(1));
  }
  // Shutdown must come back promptly (stop_token cancels the factory),
  // and a cancelled build never reaches the ensemble.
  const auto t0 = std::chrono::steady_clock::now();
  rt.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(rt.metrics_snapshot().replacements_completed, 0U);
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);
}

}  // namespace
}  // namespace pgmr::runtime
