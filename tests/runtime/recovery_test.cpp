// End-to-end fault recovery: a member corrupted beyond healing is fenced,
// a replacement (with a DIFFERENT network) is built in the background and
// hot-swapped in, and from then on every verdict is bit-identical to a
// never-faulted system of the same post-recovery composition. A second
// test drives batcher + scrubber + replacer + injected corruption
// concurrently, the TSan target for the whole recovery path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "nn/dense.h"
#include "nn/pooling.h"
#include "runtime/serving_runtime.h"
#include "tensor/random.h"

namespace pgmr::runtime {
namespace {

using std::chrono::milliseconds;

/// Flatten + Dense(2,2) with W = scale * I: logits == scale * input, so
/// differently-scaled nets give different confidences (distinguishable
/// members) while agreeing on the argmax.
nn::Network scaled_net(float scale) {
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(2, 2);
  Tensor* w = fc->params()[0];
  (*w)[0] = scale;
  (*w)[3] = scale;
  layers.push_back(std::move(fc));
  return nn::Network("identity", std::move(layers));
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("pgmr_recovery_test_" +
          std::to_string(
              ::testing::UnitTest::GetInstance()->random_seed()) +
          "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    base_archive_ = stem + "_base.net";
    replacement_archive_ = stem + "_replacement.net";
    scaled_net(1.0F).save(base_archive_);
    scaled_net(2.0F).save(replacement_archive_);
  }
  void TearDown() override {
    std::remove(base_archive_.c_str());
    std::remove(replacement_archive_.c_str());
  }

  /// {slot0_archive, base, base} system — the recovery scenario swaps
  /// slot 0 from base to replacement.
  polygraph::PolygraphSystem system_with_slot0(const std::string& slot0) {
    mr::Ensemble e;
    const std::string archives[] = {slot0, base_archive_, base_archive_};
    for (const std::string& a : archives) {
      mr::Member member(std::make_unique<prep::Identity>(),
                        nn::Network::load(a));
      member.set_archive_source(a);
      e.add(std::move(member));
    }
    polygraph::PolygraphSystem sys(std::move(e));
    sys.set_thresholds({0.5F, 3});
    return sys;
  }

  ReplacementFactory replacement_factory() {
    return [this](std::size_t, int, std::stop_token)
               -> std::optional<mr::Member> {
      mr::Member fresh(std::make_unique<prep::Identity>(),
                       nn::Network::load(replacement_archive_));
      fresh.set_archive_source(replacement_archive_);
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

  /// Deterministic probe set: seeded random [1,1,1,2] images.
  static std::vector<Tensor> probe_inputs(int count) {
    Rng rng(20260806);
    std::vector<Tensor> inputs;
    inputs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      Tensor x(Shape{1, 1, 1, 2});
      x[0] = static_cast<float>(rng.uniform(-4.0, 4.0));
      x[1] = static_cast<float>(rng.uniform(-4.0, 4.0));
      inputs.push_back(std::move(x));
    }
    return inputs;
  }

  static void expect_identical(const polygraph::Verdict& got,
                               const polygraph::Verdict& want, int i) {
    EXPECT_EQ(got.label, want.label) << "probe " << i;
    EXPECT_EQ(got.reliable, want.reliable) << "probe " << i;
    EXPECT_EQ(got.votes, want.votes) << "probe " << i;
    EXPECT_EQ(got.degraded, want.degraded) << "probe " << i;
  }

  std::string base_archive_;
  std::string replacement_archive_;
};

TEST_F(RecoveryTest, PostSwapVerdictsMatchNeverFaultedSystem) {
  RuntimeOptions opts = base_options();
  opts.replacement.factory = replacement_factory();
  ServingRuntime rt(system_with_slot0(base_archive_), opts);

  // Kill slot 0: corrupt weights, point the archive into the void.
  rt.with_swap_lock([&rt] {
    mr::Member& victim = rt.system().ensemble().member(0);
    Tensor* w = victim.net().mutable_network().params()[0];
    (*w)[0] = -(*w)[0];
    victim.set_archive_source("/nonexistent/recovery.net");
  });
  ASSERT_EQ(rt.scrub_now().fenced, 1U);
  ASSERT_EQ(rt.replace_now().replaced, 1U);

  // The never-faulted twin of the post-recovery composition, served
  // through its own runtime with identical options (same batching, same
  // protection): verdicts must agree bit for bit on every probe.
  ServingRuntime reference(system_with_slot0(replacement_archive_),
                           base_options());
  const std::vector<Tensor> probes = probe_inputs(24);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const polygraph::Verdict got = rt.submit(probes[i]).get();
    const polygraph::Verdict want =
        reference.submit(probes[i]).get();
    expect_identical(got, want, static_cast<int>(i));
    EXPECT_FALSE(got.degraded);
  }

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.replacements_completed, 1U);
  EXPECT_EQ(snap.quorum_size, 3U);
}

TEST_F(RecoveryTest, ConcurrentScrubReplaceAndServeStaysCoherent) {
  RuntimeOptions opts = base_options();
  opts.scrub_interval = milliseconds(2);
  opts.quarantine_after = 2;
  opts.quarantine_cooldown = milliseconds(5);
  opts.replacement.enabled = true;
  opts.replacement.poll = milliseconds(2);
  opts.replacement.factory = replacement_factory();
  ServingRuntime rt(system_with_slot0(base_archive_), opts);

  // Two client threads hammer the runtime while the main thread injects
  // the fatal corruption mid-stream; scrubber and replacer run throughout.
  std::atomic<long long> served{0};
  std::atomic<bool> stop{false};
  const std::vector<Tensor> probes = probe_inputs(8);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&rt, &served, &stop, &probes, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        rt.submit(probes[i % probes.size()]).get();
        served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  while (served.load(std::memory_order_relaxed) < 20) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  rt.with_swap_lock([&rt] {
    mr::Member& victim = rt.system().ensemble().member(0);
    Tensor* w = victim.net().mutable_network().params()[0];
    (*w)[0] = -(*w)[0];
    victim.set_archive_source("/nonexistent/recovery.net");
  });

  // Under live load: scrub fences slot 0, the replacer swaps the fresh
  // member in, the probe batch re-admits it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (rt.metrics_snapshot().replacements_completed == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "recovery never completed under concurrent load";
    std::this_thread::sleep_for(milliseconds(2));
  }
  const long long served_at_recovery = served.load();
  while (served.load(std::memory_order_relaxed) < served_at_recovery + 20) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  // The healed runtime itself is bit-identical to the never-faulted twin
  // of its post-recovery composition.
  ServingRuntime reference(system_with_slot0(replacement_archive_),
                           base_options());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    expect_identical(rt.submit(probes[i]).get(),
                     reference.submit(probes[i]).get(),
                     static_cast<int>(i));
  }
  rt.shutdown();

  // Every submitted request was served; the pool healed itself.
  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.requests_completed, snap.requests_submitted);
  EXPECT_GE(snap.replacements_completed, 1U);
  EXPECT_EQ(snap.quorum_size, 3U);
  EXPECT_EQ(rt.health().fenced_count(), 0U);
}

}  // namespace
}  // namespace pgmr::runtime
