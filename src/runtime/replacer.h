// MemberReplacer: the self-healing back end of the serving runtime.
//
// Fencing (WeightScrubber finding corrupt weights with no trustworthy
// archive, or the circuit breaker escalating a member that keeps
// re-tripping) permanently removes a *member* from the quorum — but the
// *slot* is recoverable. The replacer watches for fenced slots from a
// background thread and, for each one, asks a ReplacementFactory for a
// fresh member (typically a different preprocessor variant trained by the
// zoo, preserving Layer-1 diversity), then hot-swaps it into the live
// ensemble:
//
//   fenced slot ──(factory: train/load replacement, OFF the swap mutex)──►
//   swap under the runtime's swap mutex ──► CRCs re-blessed via
//   set_protection ──► MemberHealth::on_replaced (slot probes half-open)
//   ──► quorum restored, degraded Thr_Freq renormalization falls away
//
// Threading: the factory may train for a long time, so it runs with no
// locks held and receives a stop_token (shutdown cancels training
// cooperatively; partial weights are never published — see
// zoo::TrainConfig::cancelled). Only the final swap + health reset take
// the swap mutex, so inference is stalled for one member move, not one
// training run. A pass mutex serializes the background loop against
// replace_now(), so a slot is never rebuilt twice concurrently.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "mr/ensemble.h"
#include "runtime/health.h"
#include "runtime/metrics.h"

namespace pgmr::runtime {

/// Builds the replacement member for fenced slot `member`. Runs off the
/// swap mutex (it may train a network); must honour `cancel` and return
/// nullopt when cancelled or when no viable replacement exists. `attempt`
/// counts prior failed rebuilds of this slot, letting factories move to a
/// different variant on retry.
using ReplacementFactory = std::function<std::optional<mr::Member>(
    std::size_t member, int attempt, std::stop_token cancel)>;

/// Policy knobs for background member replacement.
struct ReplacementPolicy {
  /// Master switch; without it (or without a factory) the runtime behaves
  /// exactly as before: fenced slots stay empty and the quorum degrades.
  bool enabled = false;
  /// Fallback poll period of the background loop. Fence events also wake
  /// it immediately via notify(), so this only bounds recovery latency
  /// when a notification is lost to a race.
  std::chrono::milliseconds poll{20};
  /// Rebuild attempts per slot before giving up on it (each failed factory
  /// call burns one). A successful swap resets the slot's count.
  int max_attempts = 2;
  /// CPU budget for replacement training: at most this many factory calls
  /// run concurrently per pass (clamped >= 1). The cap keeps a multi-slot
  /// recovery from starving the serving threads on a loaded box.
  std::size_t training_threads = 1;
  /// Unix nice level for replacement-training threads (> 0 deprioritizes
  /// them below the serving threads). 0 leaves priority untouched; values
  /// are ignored on platforms without per-thread setpriority.
  int training_nice = 0;
  ReplacementFactory factory;
};

/// What one replacement pass over the fenced slots did.
struct ReplaceReport {
  std::size_t attempted = 0;  ///< factory invocations started
  std::size_t replaced = 0;   ///< slots hot-swapped and re-admitted
  std::size_t failed = 0;     ///< factory failures (nullopt / throw)
};

class MemberReplacer {
 public:
  /// All referees must outlive the replacer. `swap_mutex` is the runtime's
  /// inference-vs-mutation mutex; `protection[m]` (sized like the
  /// ensemble) is applied to slot m's replacement before it goes live
  /// (set_protection re-blesses CRCs), so per-member protection plans
  /// survive hot swaps.
  MemberReplacer(mr::Ensemble& ensemble, MemberHealth& health,
                 MetricsRegistry& metrics, std::mutex& swap_mutex,
                 std::vector<nn::Protection> protection,
                 ReplacementPolicy policy);

  ~MemberReplacer();

  MemberReplacer(const MemberReplacer&) = delete;
  MemberReplacer& operator=(const MemberReplacer&) = delete;

  /// Launches the background replacement thread. No-op when already
  /// running, when the policy is disabled, or when no factory is set.
  void start();

  /// Cancels any in-flight factory call (via its stop_token) and joins the
  /// background thread. Idempotent.
  void stop();

  bool running() const { return thread_.joinable(); }
  const ReplacementPolicy& policy() const { return policy_; }

  /// Wakes the background loop immediately (called on fence events so
  /// recovery doesn't wait out the poll period). Safe from any thread.
  void notify();

  /// One synchronous replacement pass over every fenced slot — the
  /// deterministic path tests and operators use. Requires a factory;
  /// returns an empty report without one. Serialized against the
  /// background loop, so the two never rebuild the same slot twice.
  ReplaceReport replace_now();

 private:
  void loop(std::stop_token st);
  ReplaceReport replace_fenced(std::stop_token cancel);
  bool replace_member(std::size_t member, std::stop_token cancel);

  mr::Ensemble& ensemble_;
  MemberHealth& health_;
  MetricsRegistry& metrics_;
  std::mutex& swap_mutex_;
  std::vector<nn::Protection> protection_;  ///< per-slot re-bless level
  ReplacementPolicy policy_;

  std::mutex pass_mutex_;      ///< serializes replace_now vs the loop
  std::vector<int> attempts_;  ///< per-slot failed rebuilds; pass_mutex_

  std::mutex wake_mutex_;
  std::condition_variable_any wake_;
  bool notified_ = false;  ///< wake_mutex_
  std::jthread thread_;
};

}  // namespace pgmr::runtime
