// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --list-metrics      (the per-layer metrics, "name unit" lines)
//   perfbench --list-archives     (member archives, "benchmark prep" lines)
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. The human-readable report goes to stdout first; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 0
// when every verdict matched the serial reference and no request failed,
// 1 when a check failed, 2 on bad arguments, 3 when the run could not
// start (e.g. a member archive is missing from the cache).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const perfbench::Workload& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  perfbench::RunOptions options;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const auto& [metric, unit] : perfbench::per_layer_metrics()) {
      std::printf("%s %s\n", metric.c_str(), unit.c_str());
    }
    return 0;
  }
  if (argc == 2 && std::strcmp(argv[1], "--list-archives") == 0) {
    for (const auto& [benchmark, spec] : perfbench::member_archives()) {
      std::printf("%s %s\n", benchmark.c_str(), spec.c_str());
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      name = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::atoi(value) != 0;
    } else {
      return usage("unknown argument");
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(name);
  if (w == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(*w, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  std::string metrics;
  for (const auto& [metric, m] : r.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", metric.c_str());
      r.correct = false;
      value = 0.0;
    }
    char item[256];
    std::snprintf(item, sizeof item, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.c_str(), value,
                  m.unit.c_str());
    metrics += item;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
