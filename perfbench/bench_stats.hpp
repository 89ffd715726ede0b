// Exact sample statistics for the serving benchmark.
//
// Every percentile the benchmark reports is an order statistic of its own
// raw samples (nearest rank), never an estimate from a bucketed histogram:
// bucket edges would move the numbers whenever the program's histogram
// layout changes, and they put tail percentiles on powers of two.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/// Nearest-rank index for quantile `q` of `n` samples: the 1-based rank
/// ceil(q * n), clamped to [1, n]. The epsilon keeps q * n that is an
/// integer up to rounding (0.99 * 1000) on that integer.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(raw, 1.0));
  return std::min(rank, n);
}

/// The smallest sample with at least q * n samples at or below it.
/// Empty input gives 0.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

/// Samples strictly ranked above the p-quantile's rank; a p99 is trusted
/// only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// a / b, or 0 when b is 0 (ratios over counts that can be empty).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
