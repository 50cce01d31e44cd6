#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double highest_supported_percentile(std::size_t n, std::size_t beyond) {
  if (n == 0 || n < beyond) return -1.0;
  return 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
}

Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  s.p50 = quantile_sorted(values, 0.50);
  s.p99 = quantile_sorted(values, 0.99);
  s.max_supported_pct = highest_supported_percentile(s.n);
  return s;
}

}  // namespace perfbench
