// Order statistics for the benchmark's reports.
//
// Every latency the benchmark prints is an exact quantile of the sorted
// per-request samples, never a histogram estimate, and carries the sample
// count behind it plus the highest percentile that count supports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of already-sorted values, interpolating linearly
/// between adjacent order statistics. 0 for an empty vector.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of `values` (taken by value: it is sorted in place).
double median(std::vector<double> values);

/// Highest percentile p (0..100) that leaves at least `beyond` samples
/// ranked above it: n - ceil(p/100 * n) >= beyond, i.e. p = 100(n-beyond)/n.
/// Negative when n < beyond — no percentile is supported at all.
double highest_supported_percentile(std::size_t n, std::size_t beyond = 10);

/// The summary printed for every timing.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max_supported_pct = -1.0;  ///< see highest_supported_percentile
  bool p99_supported() const { return max_supported_pct >= 99.0; }
};

/// Sorts `values` and summarizes them.
Summary summarize(std::vector<double> values);

}  // namespace perfbench
