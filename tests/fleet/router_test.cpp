// FleetRouter properties, all with tiny hand-built systems (no zoo cache):
//  * shard equivalence — fleet verdicts are bit-identical to the serial
//    single-system reference, for any shard count;
//  * rendezvous consistency — when a shard is quarantined only the keys it
//    owned move (spreading over the survivors), everything else stays put,
//    and they move back once the shard recovers;
//  * failover — a chaos-killed shard is quarantined after
//    shard_quarantine_after refused hand-offs, traffic re-routes, and a
//    successful half-open probe restores it after revival;
//  * overflow spill — a backlogged-but-alive winner sheds sideways to the
//    least-loaded eligible shard instead of failing;
//  * snapshot aggregation — merged counters equal per-shard sums, routing
//    counters account for every accepted hand-off.
#include "fleet/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

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

/// Deterministic member seeds: every call builds an *equivalent* system,
/// which is the factory contract shard verdicts depend on.
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

FleetOptions fleet_options(std::size_t shards,
                           std::shared_ptr<fault::ChaosInjector> chaos = {}) {
  FleetOptions o;
  o.shards = shards;
  o.chaos = std::move(chaos);
  o.runtime.threads = 1;
  o.runtime.max_batch = 4;
  o.runtime.queue_capacity = 64;
  return o;
}

/// First key in [0, limit) the router currently routes to `shard`.
std::uint64_t key_owned_by(const FleetRouter& fleet, std::size_t shard,
                           std::uint64_t limit = 4096) {
  for (std::uint64_t k = 0; k < limit; ++k) {
    if (fleet.shard_for(k) == shard) return k;
  }
  ADD_FAILURE() << "no key routed to shard " << shard;
  return 0;
}

TEST(FleetRouterTest, VerdictsMatchTheSerialReferenceOnEveryShardCount) {
  constexpr std::int64_t kN = 24;
  const Tensor images = random_images(kN, 5);
  polygraph::PolygraphSystem reference = tiny_system();

  for (const std::size_t shards : {1U, 3U}) {
    FleetRouter fleet([](std::size_t) { return tiny_system(); },
                      fleet_options(shards));
    std::vector<std::future<polygraph::Verdict>> futures;
    for (std::int64_t n = 0; n < kN; ++n) {
      futures.push_back(fleet.submit(images.slice_sample(n),
                                     static_cast<std::uint64_t>(n)));
    }
    for (std::int64_t n = 0; n < kN; ++n) {
      const polygraph::Verdict got =
          futures[static_cast<std::size_t>(n)].get();
      const polygraph::Verdict want = reference.predict(images.slice_sample(n));
      EXPECT_EQ(got.label, want.label) << shards << " shards, sample " << n;
      EXPECT_EQ(got.reliable, want.reliable) << shards << " shards, " << n;
      EXPECT_EQ(got.votes, want.votes) << shards << " shards, sample " << n;
      EXPECT_EQ(got.activated, want.activated) << shards << " shards, " << n;
      EXPECT_FALSE(got.degraded) << shards << " shards, sample " << n;
    }
    fleet.shutdown();

    const FleetSnapshot snap = fleet.snapshot();
    EXPECT_EQ(snap.merged.requests_completed, static_cast<std::uint64_t>(kN));
    std::uint64_t routed = 0, completed = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      routed += snap.routed[s];
      completed += snap.shards[s].requests_completed;
      EXPECT_EQ(snap.shard_states[s], runtime::MemberState::healthy);
    }
    EXPECT_EQ(routed, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(completed, static_cast<std::uint64_t>(kN));
  }
}

TEST(FleetRouterTest, RoutingIsDeterministicAndCoversEveryShard) {
  FleetRouter fleet([](std::size_t) { return tiny_system(); },
                    fleet_options(4));
  std::set<std::size_t> owners;
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::size_t s = fleet.shard_for(k);
    ASSERT_LT(s, 4U);
    EXPECT_EQ(fleet.shard_for(k), s) << "routing must be stable, key " << k;
    owners.insert(s);
  }
  EXPECT_EQ(owners.size(), 4U) << "256 keys must touch all 4 shards";
}

TEST(FleetRouterTest, OnlyTheDeadShardsKeysMove) {
  auto chaos = std::make_shared<fault::ChaosInjector>(0);
  FleetOptions o = fleet_options(3, chaos);
  o.shard_quarantine_after = 1;  // one refusal trips the breaker
  o.shard_cooldown = milliseconds(60000);  // no half-open inside the test
  FleetRouter fleet([](std::size_t) { return tiny_system(); }, o);

  constexpr std::uint64_t kKeys = 300;
  std::vector<std::size_t> owner(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) owner[k] = fleet.shard_for(k);

  const std::size_t victim = owner[0];
  chaos->kill_shard(victim);
  const Tensor image = random_images(1, 9);
  EXPECT_THROW(fleet.submit(image, 0), ShardUnavailable);
  ASSERT_EQ(fleet.shard_health().state(victim),
            runtime::MemberState::quarantined);

  // Consistency: keys the victim did not own are untouched; its own keys
  // redistribute over both survivors.
  std::set<std::size_t> rehomed;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::size_t now = fleet.shard_for(k);
    if (owner[k] != victim) {
      EXPECT_EQ(now, owner[k]) << "key " << k << " moved without cause";
    } else {
      EXPECT_NE(now, victim) << "key " << k;
      rehomed.insert(now);
    }
  }
  EXPECT_EQ(rehomed.size(), 2U) << "orphaned keys must spread over survivors";

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.shard_faults[victim], 1U);
  EXPECT_EQ(snap.shard_quarantines[victim], 1U);
  EXPECT_EQ(snap.unavailable, 1U);
}

TEST(FleetRouterTest, FailoverThenHalfOpenProbeRestoresTheShard) {
  auto chaos = std::make_shared<fault::ChaosInjector>(0);
  FleetOptions o = fleet_options(2, chaos);
  o.shard_quarantine_after = 2;
  o.shard_cooldown = milliseconds(50);
  FleetRouter fleet([](std::size_t) { return tiny_system(); }, o);

  const std::size_t victim = fleet.shard_for(7);
  const std::size_t survivor = 1 - victim;
  const std::uint64_t key = 7;
  const Tensor image = random_images(1, 13);

  // Detection window: quarantine_after refused hand-offs, each surfacing
  // as ShardUnavailable — the bounded availability cost of a dead shard.
  chaos->kill_shard(victim);
  EXPECT_THROW(fleet.submit(image, key), ShardUnavailable);
  EXPECT_THROW(fleet.submit(image, key), ShardUnavailable);
  EXPECT_EQ(fleet.shard_health().state(victim),
            runtime::MemberState::quarantined);
  EXPECT_EQ(chaos->shard_refusals(victim), 2U);

  // Quarantined: the victim's keys fail over to the survivor.
  fleet.submit(image, key).get();
  EXPECT_GE(fleet.snapshot().routed[survivor], 1U);

  // Revive and wait out the cooldown: the next submission for a victim key
  // runs as the half-open probe, and its success restores the shard.
  chaos->revive_shard(victim);
  std::this_thread::sleep_for(milliseconds(80));
  fleet.submit(image, key).get();
  EXPECT_EQ(fleet.shard_health().state(victim),
            runtime::MemberState::healthy);

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_GE(snap.probes, 1U);
  EXPECT_GE(snap.routed[victim], 1U);
  EXPECT_EQ(snap.shard_faults[victim], 2U);
  // Restored: the key routes home again.
  EXPECT_EQ(fleet.shard_for(key), victim);
}

TEST(FleetRouterTest, BackloggedWinnerSpillsToTheLeastLoadedShard) {
  // Member-level chaos (independent of the shard-loss injector): every
  // inference sleeps 10ms, so with single-request batches and a 2-deep
  // queue the winner is deterministically backlogged while the submit loop
  // keeps arriving — the spill path must carry the overflow.
  auto slow = std::make_shared<fault::ChaosInjector>(2);
  slow->arm(0, fault::ChaosFault::latency_spike, -1, milliseconds(10));
  slow->arm(1, fault::ChaosFault::latency_spike, -1, milliseconds(10));
  const auto slow_system = [&slow]() {
    mr::Ensemble e;
    for (std::uint64_t m = 0; m < 2; ++m) {
      e.add(mr::Member(
          fault::chaos_wrap(std::make_unique<prep::Identity>(), slow, m),
          tiny_net(m + 1)));
    }
    polygraph::PolygraphSystem sys(std::move(e));
    sys.set_thresholds({0.4F, 2});
    return sys;
  };

  FleetOptions o = fleet_options(2);
  o.runtime.queue_capacity = 2;
  o.runtime.max_batch = 1;
  FleetRouter fleet([&slow_system](std::size_t) { return slow_system(); }, o);

  const std::uint64_t key = key_owned_by(fleet, 0);
  const Tensor images = random_images(16, 17);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < 16; ++n) {
    futures.push_back(fleet.submit(images.slice_sample(n), key));
  }
  for (auto& f : futures) f.get();  // every spilled request is served
  fleet.shutdown();

  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_GE(snap.spills, 1U) << "a full winner queue must shed sideways";
  EXPECT_GE(snap.routed[1], 1U) << "spills must land on the other shard";
  EXPECT_EQ(snap.routed[0] + snap.routed[1], 16U);
  EXPECT_EQ(snap.merged.requests_completed, 16U);
  EXPECT_EQ(snap.unavailable, 0U);
}

TEST(FleetRouterTest, WholeFleetDownIsShardUnavailable) {
  auto chaos = std::make_shared<fault::ChaosInjector>(0);
  FleetOptions o = fleet_options(2, chaos);
  o.shard_quarantine_after = 1;
  o.shard_cooldown = milliseconds(60000);
  FleetRouter fleet([](std::size_t) { return tiny_system(); }, o);
  chaos->kill_shard(0);
  chaos->kill_shard(1);

  const Tensor image = random_images(1, 23);
  // Two trips (one per shard, whichever order keys elect them), then the
  // fleet has nothing eligible left.
  EXPECT_THROW(fleet.submit(image, 1), ShardUnavailable);
  EXPECT_THROW(fleet.submit(image, 2), ShardUnavailable);
  EXPECT_THROW(fleet.submit(image, 3), ShardUnavailable);
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.unavailable, 3U);
  EXPECT_EQ(snap.shard_states[0], runtime::MemberState::quarantined);
  EXPECT_EQ(snap.shard_states[1], runtime::MemberState::quarantined);
  // The advisory view still answers from the full membership.
  EXPECT_LT(fleet.shard_for(42), 2U);
}

TEST(FleetRouterTest, SubmitAfterShutdownThrows) {
  FleetRouter fleet([](std::size_t) { return tiny_system(); },
                    fleet_options(2));
  fleet.shutdown();
  fleet.shutdown();  // idempotent
  EXPECT_THROW(fleet.submit(random_images(1, 3), 0), std::runtime_error);
}

TEST(FleetRouterTest, SnapshotTextCarriesFleetAndShardLines) {
  FleetRouter fleet([](std::size_t) { return tiny_system(); },
                    fleet_options(2));
  fleet.submit(random_images(1, 29), 11).get();
  const std::string text = fleet.snapshot().to_string();
  EXPECT_NE(text.find("fleet_shards 2"), std::string::npos) << text;
  EXPECT_NE(text.find("fleet_spills"), std::string::npos);
  EXPECT_NE(text.find("shard[0] state"), std::string::npos);
  EXPECT_NE(text.find("shard[1] state"), std::string::npos);
}

}  // namespace
}  // namespace pgmr::fleet
