// Load generation: closed-loop windows and open-loop schedules.
//
// Every request is stamped on the client side. `due` is when the request
// should have gone out (closed loop: the moment it was submitted; open
// loop: its scheduled send time), `done` is when its verdict became ready.
// Completions are stamped by a watcher thread blocked on that one future,
// never by a generator that gets round to it later, so a slow shard cannot
// inflate the latency of requests queued behind it on the client side.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "polygraph/system.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Phase : std::uint8_t { warmup, window };

struct RequestRecord {
  std::int64_t due_ns = 0;         ///< scheduled send (== submit_ns closed)
  std::int64_t submit_ns = 0;      ///< just before the submit call
  std::int64_t submit_ret_ns = 0;  ///< just after the submit call returned
  std::int64_t done_ns = -1;       ///< verdict ready (-1: never)
  std::int64_t lag_ns = 0;         ///< how late the sender ran
  std::uint32_t input = 0;         ///< index into the workload's inputs
  std::uint64_t key = 0;           ///< routing key
  Phase phase = Phase::warmup;
  bool ok = false;                 ///< verdict received
  pgmr::polygraph::Verdict verdict;
  std::string error;               ///< what() of a failed request

  double latency_us() const { return (done_ns - due_ns) / 1e3; }
};

/// Submits request `input` with routing key `key`; returns its future.
using SubmitFn = std::function<std::future<pgmr::polygraph::Verdict>(
    std::uint32_t input, std::uint64_t key)>;

struct LoadResult {
  std::vector<RequestRecord> records;  ///< warmup and window, any order
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
};

/// Closed loop: `threads` generator threads each keep `in_flight` requests in
/// flight, sending the next one as soon as one of theirs completes. Request
/// i (a global counter) carries input order[i % order.size()] and key i.
/// Sends for `warmup_s`, then for `seconds` (the timed window), then stops
/// sending and waits for every request in flight.
struct ClosedLoop {
  std::size_t threads = 1;
  std::size_t in_flight = 1;
  double warmup_s = 1.0;
  double seconds = 10.0;
  std::vector<std::uint32_t> order;
};
LoadResult run_closed_loop(const ClosedLoop& spec, const SubmitFn& submit);

/// One scheduled send of an open loop.
struct Arrival {
  double at_s = 0.0;  ///< offset from the start of the schedule
  std::uint64_t key = 0;
  std::uint32_t input = 0;
  Phase phase = Phase::window;
};

/// Open loop: one pacing thread sends each arrival at its due time with
/// sleep_until, whatever is still in flight; latency counts from the due
/// time and lag_ns records how late each send was. The window spans the
/// window-phase arrivals (at least `seconds`).
LoadResult run_open_loop(const std::vector<Arrival>& schedule,
                         double seconds, const SubmitFn& submit);

}  // namespace perfbench
