// Shared helpers for the figure/table benches.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "mr/evaluate.h"
#include "prep/preprocessor.h"
#include "zoo/zoo.h"

namespace pgmr::bench {

/// Points the zoo at the repository-level cache (prewarmed by
/// tools/prewarm_cache) unless the user already set PGMR_CACHE_DIR.
inline void use_repo_cache() {
#ifdef PGMR_REPO_CACHE_DIR
  ::setenv("PGMR_CACHE_DIR", PGMR_REPO_CACHE_DIR, /*overwrite=*/0);
#endif
}

/// Validation votes of one (benchmark, preprocessor, variant) member on a
/// dataset, computed by preprocessing then running the cached network.
inline std::vector<mr::Vote> member_votes_on(const zoo::Benchmark& bm,
                                             const std::string& spec,
                                             const data::Dataset& ds,
                                             int variant = 0) {
  nn::Network net = zoo::trained_network(bm, spec, variant);
  data::Dataset transformed = ds;
  transformed.images = prep::make_preprocessor(spec)->apply(transformed.images);
  return mr::votes_from_probabilities(zoo::probabilities_on(net, transformed));
}

/// Prints a separator line for readability in the bench transcripts.
inline void rule(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

/// One measured step of a closed-loop load: K requests in flight at all
/// times (each verdict, once classified, sends the next request). Unlike
/// the open-loop flood, throughput here is self-clocked by service latency,
/// so ramping K exposes the concurrency knee of a serving stack.
struct ClosedLoopResult {
  std::size_t clients = 0;  ///< K, the requests kept in flight
  long long requests = 0;
  long long errors = 0;  ///< submissions or futures that threw
  std::int64_t tp = 0, fp = 0, unreliable = 0;
  double seconds = 0.0;

  double rps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  double fp_rate() const {
    const std::int64_t reliable = tp + fp;
    return reliable ? static_cast<double>(fp) / static_cast<double>(reliable)
                    : 0.0;
  }
};

/// Measured trials per closed-loop step (after one discarded warmup).
inline constexpr int kClosedLoopTrials = 5;

/// Drives `requests` submissions through `submit` with `clients` requests
/// in flight, the global request index drawn from one shared counter. The
/// clients share at most hardware_concurrency() OS threads: each thread
/// keeps a window of clients / threads requests in flight and waits on its
/// oldest, so the load generator does not outnumber the cores it measures.
/// `submit(i)` must return the verdict future for request i (any
/// Verdict-like with `.label` / `.reliable`); `truth(i)` its ground-truth
/// label. A submission or future that throws counts as an error, not a
/// served request.
template <typename SubmitFn, typename TruthFn>
ClosedLoopResult closed_loop_load(std::size_t clients, long long requests,
                                  SubmitFn&& submit, TruthFn&& truth) {
  using Future = decltype(submit(0LL));
  ClosedLoopResult res;
  res.clients = clients == 0 ? 1 : clients;
  res.requests = requests;
  const std::size_t threads = std::min<std::size_t>(
      res.clients, std::max(1U, std::thread::hardware_concurrency()));
  std::atomic<long long> next{0};
  std::atomic<long long> errors{0};
  std::atomic<std::int64_t> tp{0};
  std::atomic<std::int64_t> fp{0};
  std::atomic<std::int64_t> unreliable{0};
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t window =
          res.clients / threads + (t < res.clients % threads ? 1 : 0);
      workers.emplace_back([&, window] {
        std::deque<std::pair<long long, Future>> in_flight;
        // Tops the window up while requests remain to be sent.
        auto refill = [&] {
          while (in_flight.size() < window) {
            const long long i = next.fetch_add(1);
            if (i >= requests) return;
            try {
              in_flight.emplace_back(i, submit(i));
            } catch (const std::exception&) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        };
        refill();
        while (!in_flight.empty()) {
          auto [i, future] = std::move(in_flight.front());
          in_flight.pop_front();
          try {
            const auto v = future.get();
            if (!v.reliable) {
              unreliable.fetch_add(1, std::memory_order_relaxed);
            } else if (v.label == truth(i)) {
              tp.fetch_add(1, std::memory_order_relaxed);
            } else {
              fp.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::exception&) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          refill();
        }
      });
    }
  }  // joins the clients
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.errors = errors.load();
  res.tp = tp.load();
  res.fp = fp.load();
  res.unreliable = unreliable.load();
  return res;
}

/// One closed-loop step measured robustly: a discarded warmup over the
/// first quarter of the requests, then kClosedLoopTrials closed_loop_load
/// runs over all of them. Returns the trial with the median req/s.
/// Verdicts are deterministic, so every trial must tally alike: the
/// returned `errors` counts every trial's errors plus each trial whose
/// tallies differ from the median trial's.
template <typename SubmitFn, typename TruthFn>
ClosedLoopResult closed_loop_measure(std::size_t clients, long long requests,
                                     SubmitFn&& submit, TruthFn&& truth) {
  closed_loop_load(clients, std::max<long long>(requests / 4, 1), submit,
                   truth);
  std::vector<ClosedLoopResult> runs;
  for (int k = 0; k < kClosedLoopTrials; ++k) {
    runs.push_back(closed_loop_load(clients, requests, submit, truth));
  }
  std::sort(runs.begin(), runs.end(),
            [](const ClosedLoopResult& a, const ClosedLoopResult& b) {
              return a.rps() < b.rps();
            });
  ClosedLoopResult median = runs[runs.size() / 2];
  median.errors = 0;
  for (const ClosedLoopResult& r : runs) {
    const bool alike = r.tp == median.tp && r.fp == median.fp &&
                       r.unreliable == median.unreliable;
    median.errors += r.errors + (alike ? 0 : 1);
  }
  return median;
}

/// Concurrency ramp: doubles the client count 1, 2, 4, ... up to
/// `max_clients` (always measuring `max_clients` itself last if the
/// doubling overshoots it), stopping early once a step's marginal
/// throughput gain over the previous one falls below `knee_gain` — the
/// knee. Every step is a closed_loop_measure. Returns every step measured,
/// in ramp order.
template <typename SubmitFn, typename TruthFn>
std::vector<ClosedLoopResult> closed_loop_ramp(std::size_t max_clients,
                                               long long requests_per_step,
                                               SubmitFn&& submit,
                                               TruthFn&& truth,
                                               double knee_gain = 0.10) {
  std::vector<ClosedLoopResult> steps;
  if (max_clients == 0) max_clients = 1;
  for (std::size_t k = 1; k <= max_clients;
       k = k * 2 > max_clients && k < max_clients ? max_clients : k * 2) {
    steps.push_back(
        closed_loop_measure(k, requests_per_step, submit, truth));
    const std::size_t n = steps.size();
    if (n >= 2 &&
        steps[n - 1].rps() < steps[n - 2].rps() * (1.0 + knee_gain)) {
      break;  // past the knee: concurrency stopped buying throughput
    }
  }
  return steps;
}

/// The best-throughput step of a ramp (the knee or the last step).
inline const ClosedLoopResult& ramp_best(
    const std::vector<ClosedLoopResult>& steps) {
  const ClosedLoopResult* best = &steps.front();
  for (const ClosedLoopResult& s : steps) {
    if (s.rps() > best->rps()) best = &s;
  }
  return *best;
}

}  // namespace pgmr::bench
