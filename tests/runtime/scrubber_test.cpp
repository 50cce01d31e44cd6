// Weight scrubber end-to-end: a corrupted member's CRCs are caught off the
// hot path, the member is reloaded from its zoo archive without a runtime
// restart, and a member with no trustworthy archive left is fenced out of
// the quorum permanently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
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

class ScrubberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = (std::filesystem::temp_directory_path() /
                ("pgmr_scrubber_test_" +
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

  /// `members` identity members, each loaded from (and wired to reload
  /// from) the shared archive.
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

  static RuntimeOptions scrub_options(milliseconds interval = milliseconds(0)) {
    RuntimeOptions o;
    o.threads = 2;
    o.max_batch = 4;
    o.protection = nn::Protection::full;
    o.scrub_interval = interval;
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

  /// Sign-flips member m's W[0][0] (1.0 -> -1.0): breaks both its ABFT
  /// column sum and its parameter CRC. Holds the swap mutex so the
  /// mutation never races the batcher or a background sweep.
  static void corrupt_member(ServingRuntime& rt, std::size_t m) {
    rt.with_swap_lock([&rt, m] {
      Tensor* w = rt.system().ensemble().member(m).net().mutable_network()
                      .params()[0];
      (*w)[0] = -(*w)[0];
    });
  }

  std::string archive_;
};

TEST_F(ScrubberTest, CleanSweepFindsNothing) {
  ServingRuntime rt(archive_system(3), scrub_options());
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.members_checked, 3U);
  EXPECT_EQ(report.mismatches, 0U);
  EXPECT_EQ(report.reloads, 0U);
  EXPECT_EQ(report.fenced, 0U);
  EXPECT_EQ(rt.metrics_snapshot().scrub_cycles, 1U);
  EXPECT_FALSE(rt.scrubber().running());  // interval 0: on-demand only
}

TEST_F(ScrubberTest, CorruptedMemberIsHealedWithoutRestart) {
  ServingRuntime rt(archive_system(3), scrub_options());

  // Golden behaviour at full quorum.
  const polygraph::Verdict golden = serve_one(rt);
  EXPECT_EQ(golden.label, 0);
  EXPECT_TRUE(golden.reliable);
  EXPECT_FALSE(golden.degraded);

  // Corrupt member 1's weights in place. The very next batch survives it:
  // full-network ABFT drops the member's vote, quorum degrades to 2-of-2.
  corrupt_member(rt, 1);
  const polygraph::Verdict under_fault = serve_one(rt);
  EXPECT_EQ(under_fault.label, 0);
  EXPECT_TRUE(under_fault.degraded);

  // One scrub sweep spots the CRC mismatch and reloads from the archive.
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 1U);
  EXPECT_EQ(report.fenced, 0U);

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.crc_mismatches[1], 1U);
  EXPECT_EQ(snap.weight_reloads[1], 1U);
  EXPECT_EQ(snap.crc_mismatches[0], 0U);

  // The healed member votes again: back to the golden verdict, no restart.
  const polygraph::Verdict healed = serve_one(rt);
  EXPECT_EQ(healed.label, 0);
  EXPECT_TRUE(healed.reliable);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.activated, 3);
}

TEST_F(ScrubberTest, MemberWithoutTrustworthyArchiveIsFenced) {
  ServingRuntime rt(archive_system(3), scrub_options());
  EXPECT_FALSE(serve_one(rt).degraded);

  // Corrupt the member AND take away its reload source.
  corrupt_member(rt, 0);
  rt.with_swap_lock([&rt, this] {
    rt.system().ensemble().member(0).set_archive_source(archive_ + ".gone");
  });
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 0U);
  EXPECT_EQ(report.fenced, 1U);
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);

  // Fenced is terminal: the member never runs again, verdicts stay
  // degraded on the surviving quorum, and later sweeps skip it.
  for (int i = 0; i < 3; ++i) {
    const polygraph::Verdict v = serve_one(rt);
    EXPECT_EQ(v.label, 0);
    EXPECT_TRUE(v.degraded);
    EXPECT_EQ(v.activated, 2);
  }
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);
  EXPECT_EQ(rt.scrub_now().members_checked, 2U);
  EXPECT_EQ(rt.metrics_snapshot().member_faults[0], 0U);
}

TEST_F(ScrubberTest, BackgroundScrubberHealsWithoutManualSweep) {
  ServingRuntime rt(archive_system(3), scrub_options(milliseconds(5)));
  EXPECT_TRUE(rt.scrubber().running());
  EXPECT_FALSE(serve_one(rt).degraded);

  corrupt_member(rt, 2);
  // No scrub_now(): the background thread must spot and heal the member.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.metrics_snapshot().weight_reloads[2] == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background scrubber never healed the member";
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(rt.metrics_snapshot().crc_mismatches[2], 1U);
  const polygraph::Verdict healed = serve_one(rt);
  EXPECT_EQ(healed.label, 0);
  EXPECT_FALSE(healed.degraded);

  rt.shutdown();
  EXPECT_FALSE(rt.scrubber().running());
}

}  // namespace
}  // namespace pgmr::runtime
