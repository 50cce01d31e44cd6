// ShardSupervisor behaviour against a real fork/exec'd pgmr-shard-worker
// (PGMR_SHARD_WORKER_BIN points at the freshly built binary):
//  * round-trip — verdicts through the worker process are bit-identical
//    to the in-process reference system;
//  * deadline propagation — an already-expired deadline crosses the wire
//    and comes back as DeadlineExceeded, exactly like the thread path;
//  * SIGKILL recovery — the supervisor reaps the corpse (no zombies, pid
//    fully gone), respawns with backoff, and the restarted worker's
//    verdicts are bit-identical to the never-killed reference, because
//    the spec reconstruction is deterministic;
//  * restart-storm cap — a worker that can never start (poisoned spec)
//    exhausts max_restarts and latches the shard failed/unavailable;
//  * backoff schedule — the pure restart_backoff function doubles from
//    initial to cap;
//  * graceful drain — shutdown() answers everything already accepted.
#include "proc/supervisor.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "proc/spec.h"
#include "runtime/serving_runtime.h"
#include "tensor/random.h"

namespace pgmr::proc {
namespace {

using std::chrono::milliseconds;

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

Tensor random_image(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

/// A spec directory for tiny_system, removed on destruction.
struct SpecDir {
  std::filesystem::path path;
  explicit SpecDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("pgmr-supervisor-test-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    polygraph::PolygraphSystem sys = tiny_system();
    runtime::RuntimeOptions options;
    options.max_batch = 4;
    options.queue_capacity = 64;
    write_system_spec(path.string(), sys, options);
  }
  ~SpecDir() { std::filesystem::remove_all(path); }
};

fleet::ProcessOptions fast_options() {
  fleet::ProcessOptions o;
  o.worker_path = PGMR_SHARD_WORKER_BIN;
  o.startup_timeout = milliseconds(30000);
  o.backoff_initial = milliseconds(20);
  o.backoff_max = milliseconds(200);
  o.healthy_uptime = milliseconds(100);
  o.max_restarts = 8;
  o.drain_timeout = milliseconds(10000);
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

TEST(RestartBackoffTest, DoublesFromInitialToCap) {
  const auto initial = milliseconds(200);
  const auto cap = milliseconds(5000);
  EXPECT_EQ(restart_backoff(initial, cap, 0), milliseconds(200));
  EXPECT_EQ(restart_backoff(initial, cap, 1), milliseconds(400));
  EXPECT_EQ(restart_backoff(initial, cap, 2), milliseconds(800));
  EXPECT_EQ(restart_backoff(initial, cap, 3), milliseconds(1600));
  EXPECT_EQ(restart_backoff(initial, cap, 4), milliseconds(3200));
  EXPECT_EQ(restart_backoff(initial, cap, 5), milliseconds(5000));  // capped
  EXPECT_EQ(restart_backoff(initial, cap, 1000), milliseconds(5000));
}

TEST(ShardSupervisorTest, VerdictsMatchTheInProcessReference) {
  SpecDir spec("roundtrip");
  polygraph::PolygraphSystem reference = tiny_system();
  ShardSupervisor sup(spec.path.string(), fast_options(), "shard0");
  ASSERT_TRUE(sup.available()) << "worker failed to start";
  EXPECT_NE(sup.worker_pid(), 0U);
  EXPECT_NE(sup.worker_pid(), static_cast<std::uint64_t>(::getpid()))
      << "the verdicts must come from a different process";

  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const Tensor image = random_image(seed);
    const polygraph::Verdict got =
        sup.submit(image, std::nullopt).get();
    const polygraph::Verdict want = reference.predict(image);
    EXPECT_EQ(got.label, want.label) << "seed " << seed;
    EXPECT_EQ(got.reliable, want.reliable) << "seed " << seed;
    EXPECT_EQ(got.votes, want.votes) << "seed " << seed;
    EXPECT_EQ(got.activated, want.activated) << "seed " << seed;
    EXPECT_EQ(got.degraded, want.degraded) << "seed " << seed;
  }

  // The worker ships cumulative stats after every verdict.
  ASSERT_TRUE(wait_until(
      [&] { return sup.metrics_snapshot().requests_completed >= 12; },
      milliseconds(5000)));
  EXPECT_EQ(sup.restarts(), 0U);

  const auto pid = static_cast<pid_t>(sup.worker_pid());
  sup.shutdown();
  EXPECT_FALSE(sup.available());
  // Reaped for real: the pid no longer exists and no child is waitable.
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ShardSupervisorTest, ExpiredDeadlinePropagatesAsDeadlineExceeded) {
  SpecDir spec("deadline");
  ShardSupervisor sup(spec.path.string(), fast_options(), "shard0");
  ASSERT_TRUE(sup.available());
  const auto long_gone =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto future = sup.submit(random_image(1), long_gone);
  EXPECT_THROW(future.get(), runtime::DeadlineExceeded);
}

TEST(ShardSupervisorTest, SigkillRespawnsAndVerdictsStayBitIdentical) {
  SpecDir spec("sigkill");
  polygraph::PolygraphSystem reference = tiny_system();
  ShardSupervisor sup(spec.path.string(), fast_options(), "shard0");
  ASSERT_TRUE(sup.available());

  const Tensor image = random_image(55);
  const polygraph::Verdict before = sup.submit(image, std::nullopt).get();
  const std::uint64_t completed_before =
      sup.metrics_snapshot().requests_completed;
  EXPECT_GE(completed_before, 0U);

  const auto old_pid = static_cast<pid_t>(sup.worker_pid());
  ASSERT_GT(old_pid, 0);
  sup.kill_worker();  // real SIGKILL — the chaos path

  // The supervisor notices, reaps (no zombie), backs off and respawns.
  // available() alone is not enough — right after the SIGKILL the death
  // has not surfaced yet — so wait for the restart counter to tick.
  ASSERT_TRUE(wait_until(
      [&] { return sup.restarts() >= 1 && sup.available(); },
      milliseconds(15000)))
      << "supervisor did not respawn the worker";
  EXPECT_NE(static_cast<pid_t>(sup.worker_pid()), old_pid);
  EXPECT_EQ(::kill(old_pid, 0), -1) << "old worker must be fully gone";
  EXPECT_EQ(errno, ESRCH);

  // Bit-identical restart: the respawned worker reconstructs the system
  // from the same spec, so the same image gets the same verdict.
  const polygraph::Verdict after = sup.submit(image, std::nullopt).get();
  EXPECT_EQ(after.label, before.label);
  EXPECT_EQ(after.reliable, before.reliable);
  EXPECT_EQ(after.votes, before.votes);
  EXPECT_EQ(after.activated, before.activated);
  const polygraph::Verdict want = reference.predict(image);
  EXPECT_EQ(after.label, want.label);

  // Metrics survived the kill: the dead incarnation's counters were folded
  // into the cumulative base.
  ASSERT_TRUE(wait_until(
      [&] {
        return sup.metrics_snapshot().requests_completed >=
               completed_before + 1;
      },
      milliseconds(5000)));
  sup.shutdown();
}

TEST(ShardSupervisorTest, RestartStormCapLatchesTheShardFailed) {
  // A spec directory that exists but holds garbage: every worker
  // incarnation exits immediately, so the supervisor burns through its
  // restart budget and gives the shard up for good.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pgmr-supervisor-test-storm-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "spec.pgmr") << "not a spec";

  fleet::ProcessOptions o = fast_options();
  o.startup_timeout = milliseconds(2000);
  o.max_restarts = 2;
  o.restart_window = milliseconds(60000);
  ShardSupervisor sup(dir.string(), o, "shard0");

  ASSERT_TRUE(wait_until([&] { return sup.failed(); }, milliseconds(20000)))
      << "restart storm did not latch the failed state";
  EXPECT_FALSE(sup.available());
  EXPECT_GE(sup.restarts(), 2U);
  EXPECT_THROW(sup.submit(random_image(1), std::nullopt),
               fleet::ShardUnavailable);
  EXPECT_EQ(sup.try_submit(random_image(1), std::nullopt), std::nullopt);

  // Every corpse was reaped along the way.
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  sup.shutdown();
  std::filesystem::remove_all(dir);
}

TEST(ShardSupervisorTest, GracefulShutdownDrainsAcceptedRequests) {
  SpecDir spec("drain");
  ShardSupervisor sup(spec.path.string(), fast_options(), "shard0");
  ASSERT_TRUE(sup.available());

  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::uint64_t seed = 200; seed < 208; ++seed) {
    futures.push_back(sup.submit(random_image(seed), std::nullopt));
  }
  sup.shutdown();  // must answer all 8 before tearing the worker down
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(sup.submit(random_image(1), std::nullopt),
               fleet::ShardUnavailable);
}

}  // namespace
}  // namespace pgmr::proc
