// Fixed-bucket log-scale histogram for latencies (or any nonnegative
// magnitude; the unit is whatever the caller records — the serving layer
// records microseconds, the training layer milliseconds).
//
// Buckets are half-open [2^i, 2^(i+1)) up to ~67M units, which keeps
// recording to a handful of relaxed-atomic instructions. Quantiles
// interpolate linearly inside the bucket holding the target rank, with the
// bucket's upper edge clamped to the observed max — so a single sample
// reports itself exactly at every q, and the top bucket never overstates
// the maximum (see quantile_of() for the exact formula, pinned by
// test_obs). bucket_of() and quantile_of() are public so other bin arrays
// with this layout (the sliding window's) share the one implementation.
//
// Everything here is written from hot-path worker threads, so all state is
// std::atomic with relaxed ordering — readers get a near-consistent
// snapshot, writers never serialize on a lock.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>

namespace phishinghook::obs {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 27;  // 2^26 ~ 67M units cap
  using Bins = std::array<std::uint64_t, kBuckets>;

  /// Log2 bin of a magnitude: bucket b >= 1 holds [2^b, 2^(b+1)), bucket
  /// 0 holds 0 and 1, and the top bucket everything from 2^26 up.
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v > 1 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Quantile estimate for q in [0, 1] over `n` samples binned by
  /// bucket_of with observed maximum `max`: the target rank is
  /// k = min(n-1, floor(q*n)); within the bucket holding rank k (lower edge
  /// L, upper edge U clamped to `max`, population c, preceding cumulative
  /// count p) the estimate is L + (U - L) * (k - p + 1) / c. With one
  /// sample every quantile is that sample exactly.
  static double quantile_of(const Bins& bins, std::uint64_t n, double max,
                            double q) {
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto k = std::min<std::uint64_t>(
        n - 1, static_cast<std::uint64_t>(q * static_cast<double>(n)));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = bins[b];
      if (c == 0) continue;
      if (cum + c > k) {
        const double lower =
            b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << b);
        // The observed max sits in the highest nonempty bucket, so clamping
        // is a no-op everywhere below it and exact at the top.
        const double upper = std::min(
            static_cast<double>(std::uint64_t{1} << (b + 1)), max);
        const double frac = static_cast<double>(k - cum + 1) /
                            static_cast<double>(c);
        return lower + (upper - lower) * frac;
      }
      cum += c;
    }
    return max;
  }

  void record(double value) {
    const auto v = value <= 0.0 ? std::uint64_t{0}
                                : static_cast<std::uint64_t>(value);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value <= 0.0 ? 0.0 : value, std::memory_order_relaxed);
    // Monotone max via CAS; contention here is rare (only on new maxima).
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  double sum() const { return sum_.load(std::memory_order_relaxed); }

  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  double max_value() const {
    return static_cast<double>(max_.load(std::memory_order_relaxed));
  }

  /// quantile_of() over this histogram's buckets.
  double quantile(double q) const {
    // Count before buckets: record() bumps a bucket before the count.
    const std::uint64_t n = count();
    Bins bins;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      bins[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return quantile_of(bins, n, max_value(), q);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace phishinghook::obs
