// Chaos-resilience campaign: a live 4-member lenet5/SMNIST ServingRuntime
// under injected member faults (crash, NaN softmax, latency spike, stored-
// weight bit flip). For every fault class the campaign reports
//
//   availability          served / submitted (must stay 1.0 for 1-of-4)
//   batches->quarantine   batches until the circuit breaker fences the
//                         faulty member (must be <= quarantine_after)
//   FP drift              reliable-verdict false-positive rate vs the
//                         fault-free baseline, in percentage points
//   recovery              requests until full quorum returns after the
//                         fault is cleared (half-open probe succeeds)
//
// A final kill-and-recover scenario exercises the self-healing pool end to
// end: member 0's weights are corrupted beyond healing (bogus archive), the
// scrubber fences it, the MemberReplacer hot-swaps a fresh zoo variant in,
// and post-recovery verdicts must be bit-identical to a never-faulted
// system of the recovered composition (zero SDC, 0pp FP drift).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fault/chaos.h"
#include "fault/injector.h"
#include "polygraph/system.h"
#include "runtime/serving_runtime.h"

namespace {

using namespace pgmr;
using std::chrono::milliseconds;

constexpr int kMembers = 4;
constexpr int kQuarantineAfter = 3;
constexpr milliseconds kCooldown{50};
const char* const kPreps[kMembers] = {"ORG", "FlipX", "ConNorm",
                                      "Gamma(2.00)"};

/// A fault class exercised by one campaign phase.
struct FaultCase {
  const char* name;
  fault::ChaosFault chaos = fault::ChaosFault::none;
  bool flip_weight = false;  ///< high-exponent bit flip in the final FC
};

struct PhaseResult {
  long long submitted = 0;
  long long served = 0;    ///< futures that produced a verdict
  long long reliable = 0;
  long long fp = 0;
  long long degraded = 0;
  long long batches_to_quarantine = -1;  ///< -1 = breaker never tripped
  long long recovery_requests = -1;      ///< -1 = no recovery phase/failure

  double availability() const {
    return submitted ? static_cast<double>(served) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
  double fp_rate() const {
    return reliable ? static_cast<double>(fp) / static_cast<double>(reliable)
                    : 0.0;
  }
};

runtime::ServingRuntime make_runtime(
    const zoo::Benchmark& bm,
    const std::shared_ptr<fault::ChaosInjector>& chaos) {
  mr::Ensemble ensemble;
  for (int m = 0; m < kMembers; ++m) {
    ensemble.add(mr::Member(
        fault::chaos_wrap(prep::make_preprocessor(kPreps[m]), chaos,
                          static_cast<std::size_t>(m)),
        zoo::trained_network(bm, kPreps[m])));
  }
  polygraph::PolygraphSystem system(std::move(ensemble));
  system.set_thresholds({0.5F, mr::majority_threshold(kMembers)});

  runtime::RuntimeOptions opts;
  opts.threads = 2;
  opts.max_batch = 8;
  opts.quarantine_after = kQuarantineAfter;
  opts.quarantine_cooldown = kCooldown;
  return runtime::ServingRuntime(std::move(system), opts);
}

/// Serves `count` requests (one per batch) and folds them into `r`.
void serve_sequential(runtime::ServingRuntime& rt, const data::Dataset& test,
                      long long count, long long offset, PhaseResult& r) {
  const std::int64_t pool_n = test.size();
  for (long long i = 0; i < count; ++i) {
    const std::int64_t n = (offset + i) % pool_n;
    ++r.submitted;
    try {
      const polygraph::Verdict v = rt.submit(test.sample(n)).get();
      ++r.served;
      if (v.degraded) ++r.degraded;
      if (v.reliable) {
        ++r.reliable;
        if (v.label != test.labels[static_cast<std::size_t>(n)]) ++r.fp;
      }
    } catch (const std::exception&) {
      // lost request: counts against availability
    }
  }
}

PhaseResult run_phase(const zoo::Benchmark& bm, const data::Dataset& test,
                      const FaultCase& fc, long long requests) {
  auto chaos = std::make_shared<fault::ChaosInjector>(kMembers);
  runtime::ServingRuntime rt = make_runtime(bm, chaos);
  PhaseResult r;

  // The final Dense layer's bias is the last parameter tensor; bit 30 is
  // the exponent MSB, so the flip is a catastrophic silent corruption the
  // ABFT column-sum check must catch. (The bias, unlike a weight element,
  // contributes to every sample — a weight column can be silenced by a
  // ReLU-sparse input feature, making the fault fire only intermittently.)
  const fault::FaultSite flip_site{
      rt.system().ensemble().member(0).net().mutable_network().params().size() -
          1,
      0, 30};
  if (fc.chaos != fault::ChaosFault::none) {
    chaos->arm(0, fc.chaos, /*count=*/-1, milliseconds(2));
  }
  if (fc.flip_weight) {
    fault::inject(rt.system().ensemble().member(0).net().mutable_network(),
                  flip_site);
  }
  const bool faulted = fc.chaos != fault::ChaosFault::none || fc.flip_weight;

  // Phase A: one request per batch until the breaker trips (or the cap).
  for (long long b = 0; b < requests; ++b) {
    serve_sequential(rt, test, 1, b, r);
    if (rt.health().state(0) == runtime::MemberState::quarantined) {
      r.batches_to_quarantine = b + 1;
      break;
    }
  }

  // Phase B: open-loop load on whatever quorum is left.
  std::vector<std::future<polygraph::Verdict>> futures;
  const std::int64_t pool_n = test.size();
  for (long long i = 0; i < requests; ++i) {
    futures.push_back(rt.submit(test.sample(i % pool_n)));
    ++r.submitted;
  }
  for (long long i = 0; i < requests; ++i) {
    try {
      const polygraph::Verdict v = futures[static_cast<std::size_t>(i)].get();
      ++r.served;
      if (v.degraded) ++r.degraded;
      if (v.reliable) {
        ++r.reliable;
        if (v.label != test.labels[static_cast<std::size_t>(i % pool_n)]) {
          ++r.fp;
        }
      }
    } catch (const std::exception&) {
    }
  }

  // Phase C: clear the fault and measure recovery (half-open probe).
  if (faulted && r.batches_to_quarantine >= 0) {
    chaos->disarm(0);
    if (fc.flip_weight) {
      fault::inject(rt.system().ensemble().member(0).net().mutable_network(),
                    flip_site);  // XOR involution restores the weight
    }
    std::this_thread::sleep_for(kCooldown + milliseconds(10));
    for (long long i = 0; i < 16; ++i) {
      ++r.submitted;
      const polygraph::Verdict v = rt.submit(test.sample(i % pool_n)).get();
      ++r.served;
      if (!v.degraded) {
        r.recovery_requests = i + 1;
        break;
      }
    }
  }
  rt.shutdown();
  return r;
}

/// Outcome of the kill-and-recover scenario.
struct RecoveryResult {
  long long submitted = 0;
  long long served = 0;
  long long batches_to_recover = -1;  ///< -1 = quorum never returned to full
  long long compared = 0;             ///< post-recovery verdicts checked
  long long mismatches = 0;           ///< vs the never-faulted reference
  std::string replacement_prep;       ///< prep of the hot-swapped member
  runtime::MetricsSnapshot metrics;

  double availability() const {
    return submitted ? static_cast<double>(served) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
};

/// Kills member 0 beyond healing and measures the full fence -> retrain ->
/// hot-swap -> probe loop under live traffic.
RecoveryResult run_recovery(const zoo::Benchmark& bm,
                            const data::Dataset& test) {
  const mr::Thresholds thresholds{0.5F, mr::majority_threshold(kMembers)};
  polygraph::PolygraphSystem system(
      zoo::make_ensemble(bm, {kPreps[0], kPreps[1], kPreps[2], kPreps[3]}));
  system.set_thresholds(thresholds);

  runtime::RuntimeOptions opts;
  opts.threads = 2;
  opts.max_batch = 8;
  opts.quarantine_after = kQuarantineAfter;
  opts.quarantine_cooldown = kCooldown;
  opts.scrub_interval = milliseconds(5);
  opts.replacement.enabled = true;
  opts.replacement.poll = milliseconds(5);
  opts.replacement.factory = [&bm](std::size_t member, int attempt,
                                   std::stop_token cancel)
      -> std::optional<mr::Member> {
    const std::vector<std::string> in_use(kPreps, kPreps + kMembers);
    const zoo::ReplacementSpec spec =
        zoo::choose_replacement(bm, in_use, in_use[member], attempt);
    return zoo::make_replacement_member(bm, spec, 32, cancel);
  };
  runtime::ServingRuntime rt(std::move(system), opts);

  // Kill: corrupt the final FC bias (exponent MSB) and point the archive
  // somewhere unrecoverable, so the scrubber's heal must fail and fence.
  rt.with_swap_lock([&rt] {
    mr::Member& victim = rt.system().ensemble().member(0);
    victim.set_archive_source("/nonexistent/killed.net");
    fault::inject(victim.net().mutable_network(),
                  {victim.net().mutable_network().params().size() - 1, 0, 30});
  });

  // Serve one-request batches while the background loop fences and
  // replaces; recovery is complete once a swap landed and nothing is
  // fenced any more. The window is wall-clock, not a batch count: on a
  // cold cache the factory trains the replacement from scratch, and the
  // ensemble must keep serving (degraded) the whole time.
  RecoveryResult res;
  const std::int64_t pool_n = test.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  for (long long b = 0; std::chrono::steady_clock::now() < deadline; ++b) {
    ++res.submitted;
    try {
      rt.submit(test.sample(b % pool_n)).get();
      ++res.served;
    } catch (const std::exception&) {
    }
    if (rt.metrics().snapshot().replacements_completed >= 1 &&
        rt.health().fenced_count() == 0) {
      res.batches_to_recover = b + 1;
      break;
    }
  }
  res.replacement_prep = rt.system().ensemble().member(0).prep_name();

  if (res.batches_to_recover >= 0) {
    // The recovered composition, built fresh and never faulted: the live
    // runtime's verdicts must now be bit-identical to it.
    polygraph::PolygraphSystem reference(zoo::make_ensemble(
        bm, {res.replacement_prep, kPreps[1], kPreps[2], kPreps[3]}));
    reference.set_thresholds(thresholds);
    for (long long i = 0; i < 32; ++i) {
      const std::int64_t n = i % pool_n;
      ++res.submitted;
      const polygraph::Verdict live = rt.submit(test.sample(n)).get();
      ++res.served;
      const polygraph::Verdict want = reference.predict(test.sample(n));
      ++res.compared;
      if (live.label != want.label || live.reliable != want.reliable ||
          live.votes != want.votes || live.degraded) {
        ++res.mismatches;
      }
    }
  }
  res.metrics = rt.metrics_snapshot();
  rt.shutdown();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  pgmr::bench::use_repo_cache();
  const long long requests = argc > 1 ? std::atoll(argv[1]) : 64;
  const zoo::Benchmark& bm = zoo::find_benchmark("lenet5");
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);

  const FaultCase cases[] = {
      {"baseline", fault::ChaosFault::none, false},
      {"member_exception", fault::ChaosFault::member_exception, false},
      {"nan_output", fault::ChaosFault::nan_output, false},
      {"latency_spike", fault::ChaosFault::latency_spike, false},
      {"weight_bit_flip", fault::ChaosFault::none, true},
  };

  pgmr::bench::rule("chaos resilience (4-member lenet5/SMNIST, 1 faulted)");
  std::printf("%-18s %6s %8s %8s %8s %8s %10s %9s\n", "fault", "avail",
              "degr%", "FP%", "drift", "quarant", "recovery", "verdict");
  double baseline_fp = 0.0;
  bool all_ok = true;
  for (const FaultCase& fc : cases) {
    const PhaseResult r = run_phase(bm, splits.test, fc, requests);
    if (fc.chaos == fault::ChaosFault::none && !fc.flip_weight) {
      baseline_fp = r.fp_rate();
    }
    const double drift_pp = (r.fp_rate() - baseline_fp) * 100.0;
    const bool is_fault = fc.chaos != fault::ChaosFault::none || fc.flip_weight;
    // Latency spikes are slow, not wrong: the breaker must NOT trip.
    const bool expect_quarantine =
        is_fault && fc.chaos != fault::ChaosFault::latency_spike;
    const bool ok =
        r.availability() >= 1.0 &&
        (!expect_quarantine || (r.batches_to_quarantine >= 0 &&
                                r.batches_to_quarantine <= kQuarantineAfter &&
                                r.recovery_requests >= 0)) &&
        (expect_quarantine || r.batches_to_quarantine < 0) &&
        drift_pp <= 1.0;
    all_ok = all_ok && ok;
    std::printf("%-18s %6.3f %8.1f %8.2f %+7.2fpp %8lld %10lld %9s\n", fc.name,
                r.availability(),
                100.0 * static_cast<double>(r.degraded) /
                    static_cast<double>(r.submitted),
                100.0 * r.fp_rate(), drift_pp,
                static_cast<long long>(r.batches_to_quarantine),
                static_cast<long long>(r.recovery_requests),
                ok ? "ok" : "VIOLATED");
  }
  pgmr::bench::rule("kill-and-recover (scrub fences member 0, hot-swap heals)");
  const RecoveryResult rec = run_recovery(bm, splits.test);
  const bool rec_ok = rec.availability() >= 1.0 &&
                      rec.batches_to_recover >= 0 && rec.compared > 0 &&
                      rec.mismatches == 0;
  all_ok = all_ok && rec_ok;
  std::printf("quorum restored in %lld batches (10 min window); slot 0 now %s\n",
              rec.batches_to_recover, rec.replacement_prep.c_str());
  std::printf("replacements: started %llu  completed %llu  failed %llu; "
              "quorum gauge %llu/%d\n",
              static_cast<unsigned long long>(
                  rec.metrics.replacements_started),
              static_cast<unsigned long long>(
                  rec.metrics.replacements_completed),
              static_cast<unsigned long long>(rec.metrics.replacements_failed),
              static_cast<unsigned long long>(rec.metrics.quorum_size),
              kMembers);
  std::printf("availability %.3f; post-recovery verdicts vs never-faulted "
              "reference: %lld compared, %lld mismatched -> %s\n",
              rec.availability(), rec.compared, rec.mismatches,
              rec_ok ? "ok" : "VIOLATED");

  std::printf("\nacceptance: every request served, quarantine <= %d batches, "
              "FP drift <= 1pp, recovery bit-identical -> %s\n",
              kQuarantineAfter, all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
