// Serving-runtime throughput: requests/sec, batch coalescing and latency of
// a 4-member SMNIST (lenet5) PolygraphMR system under an open-loop load, at
// threads = 1/2/4 (the batcher plus 0/1/3 pool workers). The verdict
// tallies must be identical across rows — per-member parallelism never
// changes the decision.
//
// A second section ramps closed-loop concurrency (K clients, one request in
// flight each — bench::closed_loop_ramp, shared with fleet_bench) against a
// single runtime to locate its per-replica knee: the K past which more
// concurrency buys < 10% throughput. fleet_bench stacks N such replicas.
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_util.h"
#include "polygraph/system.h"
#include "runtime/serving_runtime.h"

namespace {

using namespace pgmr;

struct Row {
  std::size_t threads = 0;
  double rps = 0.0;
  double mean_batch = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::int64_t tp = 0, fp = 0, unreliable = 0;
};

Row run_load(const zoo::Benchmark& bm, const data::Dataset& test,
             std::size_t threads, long long requests) {
  runtime::RuntimeOptions opts;
  opts.threads = threads;
  opts.max_batch = 16;
  opts.queue_capacity = 128;
  polygraph::PolygraphSystem system(zoo::make_ensemble(
      bm, {"ORG", "FlipX", "ConNorm", "Gamma(2.00)"}));
  system.set_thresholds({0.5F, mr::majority_threshold(4)});
  runtime::ServingRuntime rt(std::move(system), opts);

  std::vector<std::future<polygraph::Verdict>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  const std::int64_t pool_n = test.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (long long r = 0; r < requests; ++r) {
    futures.push_back(rt.submit(test.sample(r % pool_n)));
  }
  Row row;
  for (long long r = 0; r < requests; ++r) {
    const polygraph::Verdict v = futures[static_cast<std::size_t>(r)].get();
    const std::int64_t truth = test.labels[static_cast<std::size_t>(r % pool_n)];
    if (!v.reliable) {
      ++row.unreliable;
    } else if (v.label == truth) {
      ++row.tp;
    } else {
      ++row.fp;
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rt.shutdown();

  const runtime::MetricsSnapshot snap = rt.metrics_snapshot();
  row.threads = threads;
  row.rps = static_cast<double>(requests) / secs;
  row.mean_batch = snap.mean_batch_size();
  row.p50_us = snap.latency_quantile_us(0.5);
  row.p99_us = snap.latency_quantile_us(0.99);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  pgmr::bench::use_repo_cache();
  const long long requests = argc > 1 ? std::atoll(argv[1]) : 512;
  const zoo::Benchmark& bm = zoo::find_benchmark("lenet5");
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);

  pgmr::bench::rule("serving throughput (4-member lenet5/SMNIST)");
  std::printf("%-8s %10s %10s %9s %9s %6s %6s %6s %9s\n", "threads", "req/s",
              "meanbatch", "p50us", "p99us", "TP", "FP", "unrel", "speedup");
  double base_rps = 0.0;
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const Row row = run_load(bm, splits.test, threads, requests);
    if (base_rps == 0.0) base_rps = row.rps;
    std::printf("%-8zu %10.1f %10.2f %9llu %9llu %6lld %6lld %6lld %8.2fx\n",
                row.threads, row.rps, row.mean_batch,
                static_cast<unsigned long long>(row.p50_us),
                static_cast<unsigned long long>(row.p99_us),
                static_cast<long long>(row.tp), static_cast<long long>(row.fp),
                static_cast<long long>(row.unreliable), row.rps / base_rps);
  }

  pgmr::bench::rule("closed-loop concurrency ramp (threads = 1, K clients)");
  {
    runtime::RuntimeOptions opts;
    opts.threads = 1;
    opts.max_batch = 16;
    polygraph::PolygraphSystem system(zoo::make_ensemble(
        bm, {"ORG", "FlipX", "ConNorm", "Gamma(2.00)"}));
    system.set_thresholds({0.5F, mr::majority_threshold(4)});
    runtime::ServingRuntime rt(std::move(system), opts);
    const std::int64_t pool_n = splits.test.size();
    const auto steps = pgmr::bench::closed_loop_ramp(
        8, requests,
        [&](long long i) { return rt.submit(splits.test.sample(i % pool_n)); },
        [&](long long i) {
          return splits.test.labels[static_cast<std::size_t>(i % pool_n)];
        });
    std::printf("%-8s %10s %6s %6s %6s %7s\n", "clients", "req/s", "TP", "FP",
                "unrel", "errors");
    for (const pgmr::bench::ClosedLoopResult& s : steps) {
      std::printf("%-8zu %10.1f %6lld %6lld %6lld %7lld\n", s.clients,
                  s.rps(), static_cast<long long>(s.tp),
                  static_cast<long long>(s.fp),
                  static_cast<long long>(s.unreliable), s.errors);
    }
    std::printf("knee: %zu clients @ %.1f req/s\n",
                pgmr::bench::ramp_best(steps).clients,
                pgmr::bench::ramp_best(steps).rps());
    rt.shutdown();
  }
  return 0;
}
