// End-to-end resilience: chaos faults injected into live ServingRuntime
// members must never lose a request — verdicts degrade, the circuit
// breaker quarantines and recovers, expired requests are shed.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/chaos.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "runtime/serving_runtime.h"

namespace pgmr::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

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

/// `members` identical identity members, each wired to `chaos`.
polygraph::PolygraphSystem chaos_system(
    int members, const std::shared_ptr<fault::ChaosInjector>& chaos) {
  mr::Ensemble e;
  for (int m = 0; m < members; ++m) {
    e.add(mr::Member(
        fault::chaos_wrap(std::make_unique<prep::Identity>(), chaos,
                          static_cast<std::size_t>(m)),
        identity_net()));
  }
  polygraph::PolygraphSystem sys(std::move(e));
  sys.set_thresholds({0.5F, members});  // strict: full agreement required
  return sys;
}

Tensor confident_input() {
  Tensor x(Shape{1, 1, 1, 2});
  x[0] = 5.0F;  // logits (5, 0): every healthy member votes class 0
  return x;
}

RuntimeOptions fast_options(int quarantine_after,
                            milliseconds cooldown = milliseconds(10000)) {
  RuntimeOptions o;
  o.threads = 2;
  o.max_batch = 4;
  o.quarantine_after = quarantine_after;
  o.quarantine_cooldown = cooldown;
  return o;
}

/// Submits one request and waits for it: exactly one batch per call.
polygraph::Verdict serve_one(ServingRuntime& rt) {
  return rt.submit(confident_input()).get();
}

TEST(ResilienceTest, MemberExceptionDegradesThenQuarantines) {
  auto chaos = std::make_shared<fault::ChaosInjector>(3);
  chaos->arm(0, fault::ChaosFault::member_exception);  // until disarm
  ServingRuntime rt(chaos_system(3, chaos), fast_options(2));

  // Every request is served despite the crashing member; Thr_Freq 3-of-3
  // renormalizes to 2-of-2, so the verdicts stay reliable but degraded.
  for (int i = 0; i < 5; ++i) {
    const polygraph::Verdict v = serve_one(rt);
    EXPECT_EQ(v.label, 0);
    EXPECT_TRUE(v.reliable);
    EXPECT_TRUE(v.degraded);
    EXPECT_EQ(v.activated, 2);
  }

  // After quarantine_after = 2 consecutive faults the breaker tripped, so
  // the chaos hook fired exactly twice — later batches skip the member.
  EXPECT_EQ(rt.health().state(0), MemberState::quarantined);
  EXPECT_EQ(chaos->fired(0), 2U);

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.requests_completed, 5U);
  EXPECT_EQ(snap.degraded_verdicts, 5U);
  EXPECT_EQ(snap.member_faults[0], 2U);
  EXPECT_EQ(snap.quarantine_events[0], 1U);
  EXPECT_EQ(snap.member_faults[1], 0U);
  // Degraded verdicts charge only the surviving members.
  EXPECT_EQ(snap.member_activations[0], 0U);
  EXPECT_EQ(snap.member_activations[1], 5U);
}

TEST(ResilienceTest, NanOutputsAreFencedByFiniteCheck) {
  auto chaos = std::make_shared<fault::ChaosInjector>(3);
  chaos->arm(1, fault::ChaosFault::nan_output);
  ServingRuntime rt(chaos_system(3, chaos), fast_options(2));

  for (int i = 0; i < 4; ++i) {
    const polygraph::Verdict v = serve_one(rt);
    EXPECT_EQ(v.label, 0);
    EXPECT_TRUE(v.degraded);
  }
  EXPECT_EQ(rt.health().state(1), MemberState::quarantined);
  EXPECT_GE(rt.metrics_snapshot().member_faults[1], 2U);
}

TEST(ResilienceTest, LatencySpikeIsNotAFault) {
  auto chaos = std::make_shared<fault::ChaosInjector>(2);
  chaos->arm(0, fault::ChaosFault::latency_spike, /*count=*/1,
             milliseconds(5));
  ServingRuntime rt(chaos_system(2, chaos), fast_options(1));
  const polygraph::Verdict v = serve_one(rt);
  EXPECT_TRUE(v.reliable);
  EXPECT_FALSE(v.degraded);
  EXPECT_EQ(rt.health().state(0), MemberState::healthy);
  EXPECT_EQ(rt.metrics_snapshot().member_faults[0], 0U);
}

TEST(ResilienceTest, QuarantinedMemberRecoversViaHalfOpenProbe) {
  auto chaos = std::make_shared<fault::ChaosInjector>(3);
  chaos->arm(0, fault::ChaosFault::member_exception, /*count=*/1);
  ServingRuntime rt(chaos_system(3, chaos), fast_options(1, milliseconds(50)));

  // One fault trips the breaker (quarantine_after = 1).
  EXPECT_TRUE(serve_one(rt).degraded);
  EXPECT_EQ(rt.health().state(0), MemberState::quarantined);

  // Before the cooldown the member stays fenced off.
  EXPECT_TRUE(serve_one(rt).degraded);

  // After the cooldown the next batch runs it half-open; the fault plan is
  // exhausted, so the probe succeeds and full quorum returns.
  std::this_thread::sleep_for(milliseconds(80));
  const polygraph::Verdict recovered = serve_one(rt);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_EQ(recovered.activated, 3);
  EXPECT_EQ(rt.health().state(0), MemberState::healthy);
}

TEST(ResilienceTest, ExpiredDeadlineIsShedWithDistinctError) {
  auto chaos = std::make_shared<fault::ChaosInjector>(2);
  ServingRuntime rt(chaos_system(2, chaos), fast_options(3));

  auto doomed =
      rt.submit(confident_input(), steady_clock::now() - milliseconds(1));
  EXPECT_THROW(doomed.get(), DeadlineExceeded);

  // A generous deadline is honoured normally.
  auto fine =
      rt.submit(confident_input(), steady_clock::now() + milliseconds(5000));
  EXPECT_TRUE(fine.get().reliable);

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.requests_shed, 1U);
  EXPECT_EQ(snap.requests_completed, 1U);
}

TEST(ResilienceTest, WholeEnsembleFailurePropagatesWithoutQuarantine) {
  // Every member throwing on the same batch is indistinguishable from a
  // poison input: the request fails, nobody's health is charged.
  auto chaos = std::make_shared<fault::ChaosInjector>(2);
  chaos->arm(0, fault::ChaosFault::member_exception, /*count=*/1);
  chaos->arm(1, fault::ChaosFault::member_exception, /*count=*/1);
  ServingRuntime rt(chaos_system(2, chaos), fast_options(1));

  auto poisoned = rt.submit(confident_input());
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  EXPECT_EQ(rt.health().state(0), MemberState::healthy);
  EXPECT_EQ(rt.health().state(1), MemberState::healthy);
  EXPECT_EQ(rt.metrics_snapshot().quarantine_events[0], 0U);

  // The runtime itself survives: the next request is served at full quorum.
  const polygraph::Verdict v = serve_one(rt);
  EXPECT_TRUE(v.reliable);
  EXPECT_FALSE(v.degraded);
}

}  // namespace
}  // namespace pgmr::runtime
