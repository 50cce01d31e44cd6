// The benchmark's workloads and the run that measures one of them.
//
// Systems are built only through the public API (polygraph::make_system,
// ServingRuntime, FleetRouter) with the RuntimeOptions batching defaults,
// so the batching policy is measured as the program ships it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fleet/backend.h"
#include "polygraph/config.h"

namespace perfbench {

struct Workload {
  std::string name;
  pgmr::polygraph::SystemConfig config;
  bool full_protection = false;  ///< ABFT on every layer (else the default)
  std::size_t shards = 0;        ///< 0: one ServingRuntime, no fleet
  pgmr::fleet::Isolation isolation = pgmr::fleet::Isolation::thread;
  bool open_loop = false;
  std::size_t threads = 1;  ///< closed loop: generator threads
  std::size_t in_flight = 1;  ///< closed loop: requests in flight per thread
  double rate_rps = 0.0;    ///< open loop: mean arrival rate
  double slo_ms = 0.0;      ///< latency limit behind slo_attainment
};

const std::vector<Workload>& workloads();

/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One metric of the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
};

/// Runs `w` (untraced: end-to-end metrics; traced: per-layer metrics),
/// printing a human-readable report on stdout as it goes. Throws
/// std::runtime_error when a member archive is missing from the cache.
RunResult run_workload(const Workload& w, const RunOptions& options);

/// (benchmark, preprocessor spec) of every member archive the workloads
/// serve or probe.
std::vector<std::pair<std::string, std::string>> member_archives();

/// Names of the per-layer metrics a traced run reports, in report order,
/// with their units.
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

}  // namespace perfbench
