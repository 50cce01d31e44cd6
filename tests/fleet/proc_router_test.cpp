// FleetRouter with process isolation — the same contract as the thread
// backend, now against real fork/exec'd workers:
//  * verdict equivalence — process-mode fleet verdicts are bit-identical
//    to the serial in-process reference;
//  * real-SIGKILL chaos — kill_shard() delivers an actual SIGKILL to the
//    victim's worker; the breaker quarantines it off refused hand-offs,
//    survivors keep serving, the supervisor respawns the worker, and a
//    half-open probe restores the shard with bit-identical verdicts;
//  * shard() access is a logic error (the runtime lives in another
//    address space);
//  * shutdown-vs-submit — concurrent submitters race shutdown() without
//    crashes or torn hand-offs: every submission either completes or
//    fails fast with ShardUnavailable (both backends).
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "fleet/router.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::fleet {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;

nn::Network tiny_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto up = std::make_unique<nn::Dense>(16, 8);
  up->init(rng);
  layers.push_back(std::move(up));
  layers.push_back(std::make_unique<nn::ReLU>());
  auto down = std::make_unique<nn::Dense>(8, 3);
  down->init(rng);
  layers.push_back(std::move(down));
  return nn::Network("tiny", std::move(layers));
}

polygraph::PolygraphSystem tiny_system() {
  mr::Ensemble e;
  for (std::uint64_t m = 0; m < 2; ++m) {
    e.add(mr::Member(std::make_unique<prep::Identity>(), tiny_net(m + 1)));
  }
  polygraph::PolygraphSystem sys(std::move(e));
  sys.set_thresholds({0.4F, 2});
  return sys;
}

Tensor random_images(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, 1, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

FleetOptions process_options(std::size_t shards,
                             std::shared_ptr<fault::ChaosInjector> chaos = {}) {
  FleetOptions o;
  o.shards = shards;
  o.chaos = std::move(chaos);
  o.isolation = Isolation::process;
  o.process.worker_path = PGMR_SHARD_WORKER_BIN;
  o.process.backoff_initial = milliseconds(50);
  o.process.backoff_max = milliseconds(400);
  o.process.healthy_uptime = milliseconds(200);
  o.runtime.threads = 1;
  o.runtime.max_batch = 4;
  o.runtime.queue_capacity = 64;
  return o;
}

bool wait_until(const std::function<bool()>& pred, milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

TEST(ProcRouterTest, ProcessModeVerdictsMatchTheSerialReference) {
  constexpr std::int64_t kN = 16;
  const Tensor images = random_images(kN, 5);
  polygraph::PolygraphSystem reference = tiny_system();

  FleetRouter fleet([](std::size_t) { return tiny_system(); },
                    process_options(2));
  EXPECT_EQ(fleet.isolation(), Isolation::process);
  EXPECT_THROW(fleet.shard(0), std::logic_error)
      << "process shards live in another address space";

  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < kN; ++n) {
    futures.push_back(
        fleet.submit(images.slice_sample(n), static_cast<std::uint64_t>(n)));
  }
  for (std::int64_t n = 0; n < kN; ++n) {
    const polygraph::Verdict got = futures[static_cast<std::size_t>(n)].get();
    const polygraph::Verdict want = reference.predict(images.slice_sample(n));
    EXPECT_EQ(got.label, want.label) << "sample " << n;
    EXPECT_EQ(got.reliable, want.reliable) << "sample " << n;
    EXPECT_EQ(got.votes, want.votes) << "sample " << n;
    EXPECT_EQ(got.activated, want.activated) << "sample " << n;
    EXPECT_FALSE(got.degraded) << "sample " << n;
  }
  fleet.shutdown();

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.merged.requests_completed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(snap.routed[0] + snap.routed[1], static_cast<std::uint64_t>(kN));
  EXPECT_EQ(snap.shard_restarts[0] + snap.shard_restarts[1], 0U);
}

TEST(ProcRouterTest, RealSigkillQuarantineRespawnProbeRestore) {
  auto chaos = std::make_shared<fault::ChaosInjector>(0);
  FleetOptions o = process_options(2, chaos);
  o.shard_quarantine_after = 2;
  o.shard_cooldown = milliseconds(100);
  FleetRouter fleet([](std::size_t) { return tiny_system(); }, o);

  const Tensor images = random_images(8, 31);
  const std::uint64_t key = 7;
  const std::size_t victim = fleet.shard_for(key);
  const std::size_t survivor = 1 - victim;
  const polygraph::Verdict before = fleet.submit(images.slice_sample(0), key).get();

  // Real chaos: SIGKILL the victim's worker process. The simulated-down
  // flag must stay false — the death is observed through the socket.
  chaos->kill_shard(victim);
  EXPECT_FALSE(chaos->shard_down(victim))
      << "process isolation must not fall back to simulation";

  // Detection window: refused hand-offs feed the breaker exactly like the
  // thread backend. The kill may need a moment to surface as EOF, so poll.
  ASSERT_TRUE(wait_until(
      [&] {
        try {
          fleet.submit(images.slice_sample(1), key).get();
        } catch (const ShardUnavailable&) {
        } catch (const std::exception&) {
          // in-flight casualty of the kill; also evidence of the outage
        }
        return fleet.shard_health().state(victim) ==
               runtime::MemberState::quarantined;
      },
      milliseconds(10000)))
      << "refused hand-offs must quarantine the killed shard";
  EXPECT_GE(chaos->shard_refusals(victim), 2U)
      << "refusals are counted identically to the thread backend";

  // Survivors keep the fleet serving while the victim is down.
  const polygraph::Verdict failover =
      fleet.submit(images.slice_sample(0), key).get();
  EXPECT_EQ(failover.label, before.label) << "shards must be equivalent";
  EXPECT_GE(fleet.snapshot().routed[survivor], 1U);

  // revive_shard is a harmless no-op in process mode (the supervisor owns
  // recovery); the worker respawns on its own.
  chaos->revive_shard(victim);
  ASSERT_TRUE(wait_until(
      [&] { return fleet.backend(victim).available(); }, milliseconds(15000)))
      << "supervisor did not respawn the killed worker";
  EXPECT_GE(fleet.snapshot().shard_restarts[victim], 1U);

  // After the cooldown the victim's key probes it half-open; success
  // restores the shard, and the respawned worker (rebuilt from the same
  // spec) answers bit-identically to the pre-kill incarnation.
  ASSERT_TRUE(wait_until(
      [&] {
        try {
          const polygraph::Verdict v =
              fleet.submit(images.slice_sample(0), key).get();
          EXPECT_EQ(v.label, before.label);
          EXPECT_EQ(v.reliable, before.reliable);
          EXPECT_EQ(v.votes, before.votes);
        } catch (const ShardUnavailable&) {
          return false;  // re-quarantined probe; keep waiting
        }
        return fleet.shard_health().state(victim) ==
               runtime::MemberState::healthy;
      },
      milliseconds(15000)))
      << "half-open probe did not restore the respawned shard";

  const polygraph::Verdict after = fleet.submit(images.slice_sample(0), key).get();
  EXPECT_EQ(after.label, before.label);
  EXPECT_EQ(after.votes, before.votes);
  fleet.shutdown();
}

/// Satellite: shutdown() must be safe against concurrent submit() — no
/// crash, no hang, no torn hand-off; post-stop submissions fail fast.
template <typename MakeOptions>
void run_shutdown_race(MakeOptions make_options) {
  for (int round = 0; round < 3; ++round) {
    FleetRouter fleet([](std::size_t) { return tiny_system(); },
                      make_options());
    const Tensor images = random_images(4, 41);
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> served{0}, refused{0};

    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (std::uint64_t k = 0; k < 32; ++k) {
          try {
            fleet.submit(images.slice_sample(k % 4),
                         k * 4 + static_cast<std::uint64_t>(t));
            served.fetch_add(1);
          } catch (const ShardUnavailable&) {
            refused.fetch_add(1);  // fail-fast after stop: the contract
          }
        }
      });
    }
    go.store(true);
    std::this_thread::sleep_for(milliseconds(5 * round));
    fleet.shutdown();
    for (auto& t : submitters) t.join();

    EXPECT_EQ(served.load() + refused.load(), 128U);
    // Post-stop submissions fail fast with ShardUnavailable, not a generic
    // runtime_error, and never block.
    EXPECT_THROW(fleet.submit(images.slice_sample(0), 0), ShardUnavailable);
  }
}

TEST(ProcRouterTest, ShutdownRacesSubmitSafelyThreadBackend) {
  run_shutdown_race([] {
    FleetOptions o;
    o.shards = 2;
    o.runtime.threads = 1;
    o.runtime.max_batch = 4;
    o.runtime.queue_capacity = 64;
    return o;
  });
}

TEST(ProcRouterTest, ShutdownRacesSubmitSafelyProcessBackend) {
  run_shutdown_race([] { return process_options(2); });
}

}  // namespace
}  // namespace pgmr::fleet
