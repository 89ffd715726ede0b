// Sliding-window aggregation and SLO evaluation over the last N seconds.
//
// The cumulative MetricsRegistry answers "what happened since boot"; an
// operator watching a live stream wants "what is happening *now*". A
// SlidingWindowAggregator keeps a ring of time buckets (window_seconds /
// bucket_count each), every record lands in the bucket owning the current
// instant, and a snapshot aggregates only the buckets whose epoch still
// falls inside the window — so rate, error-ratio and p50/p95/p99 decay
// naturally as traffic stops, without a background sweeper thread.
//
// Staleness is handled by *epoch tagging*, not eager clearing: each slot
// remembers the absolute bucket index it last served, a writer reuses a
// slot by resetting it when the epoch moved on, and readers simply skip
// slots whose epoch left the window. That makes idle decay, forward clock
// jumps larger than the window, and wraparound all the same code path.
// Backward jumps (a hostile/buggy injected clock) clamp to the furthest
// epoch ever seen — time never runs backwards inside the ring.
//
// The clock is injectable (seconds, monotone) so tests can drive bucket
// wraparound and jump behavior deterministically; the default reads
// std::chrono::steady_clock.
//
// SloEvaluator sits on top: given an error-ratio target (and optionally a
// p99 target), it turns a snapshot into a burn-rate (observed error ratio
// over target — 1.0 = exactly at budget), edge-triggered breach counters,
// and a [0,1] shed-pressure signal a coordinator can consult to start
// refusing work before the SLO is torched.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace phishinghook::obs {

struct WindowConfig {
  double window_seconds = 10.0;
  std::size_t bucket_count = 10;
};

class SlidingWindowAggregator {
 public:
  /// Monotone clock in seconds. Injectable for deterministic tests.
  using ClockFn = std::function<double()>;

  explicit SlidingWindowAggregator(WindowConfig config = {},
                                   ClockFn clock = {});

  /// Records one completed request with its latency (any nonnegative unit;
  /// the serving layer records microseconds).
  void record_ok(double latency_us);

  /// Records one failed request. A positive latency also lands in the
  /// latency bins (failures took time too); pass 0 when unknown.
  void record_error(double latency_us = 0.0);

  struct Snapshot {
    double window_seconds = 0.0;
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    double rate_per_sec = 0.0;  ///< total / window
    double error_ratio = 0.0;   ///< errors / total (0 when idle)
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };

  /// Aggregates the buckets still inside the window as of now.
  Snapshot snapshot() const;

  double window_seconds() const { return config_.window_seconds; }

 private:
  // LatencyHistogram's log2 bins and quantile rule, but plain integers
  // under the ring mutex.
  static constexpr std::size_t kBins = LatencyHistogram::kBuckets;

  struct Bucket {
    std::int64_t epoch = -1;  ///< absolute bucket index; -1 = never used
    std::uint64_t total = 0;
    std::uint64_t errors = 0;
    std::uint64_t max_us = 0;
    LatencyHistogram::Bins bins{};
  };

  /// Clamped absolute bucket index for "now"; caller holds mutex_.
  std::int64_t current_epoch() const;
  /// The slot for `epoch`, reset if it last served an older epoch.
  Bucket& bucket_for(std::int64_t epoch);
  void record(double latency_us, bool ok);

  WindowConfig config_;
  ClockFn clock_;
  double bucket_width_s_;

  mutable std::mutex mutex_;
  mutable std::int64_t furthest_epoch_ = 0;  ///< backward-jump clamp
  std::vector<Bucket> ring_;
};

struct SloConfig {
  /// Label value on the breach counters (`slo="<name>:errors"` etc.).
  std::string name = "availability";
  /// Error-ratio budget over the window; burn rate is observed/target.
  double target_error_ratio = 0.01;
  /// p99 latency target in the window's unit; 0 disables the latency SLO.
  double target_p99_us = 0.0;
  /// Burn rate at which shed pressure saturates to 1.0. At 1.0 burn
  /// (exactly on budget) pressure is 1/shed_pressure_burn.
  double shed_pressure_burn = 2.0;
};

/// Evaluates a window against SLO targets and (optionally) publishes the
/// result as metrics. Borrows the aggregator; not thread-safe itself —
/// evaluate from one place (the scrape hook or the coordinator loop).
class SloEvaluator {
 public:
  explicit SloEvaluator(const SlidingWindowAggregator& window,
                        SloConfig config = {});

  struct Evaluation {
    SlidingWindowAggregator::Snapshot window;
    double burn_rate = 0.0;       ///< error_ratio / target (1.0 = at budget)
    bool error_breach = false;    ///< burn_rate > 1
    bool latency_breach = false;  ///< p99 over target (when one is set)
    double shed_pressure = 0.0;   ///< [0,1] backoff signal
  };

  Evaluation evaluate() const;

  /// Evaluates, then publishes gauges (`<prefix>_window_rate_per_sec`,
  /// `_window_error_ratio`, `_window_p50_us`/`_p95_us`/`_p99_us`,
  /// `_error_burn_rate`, `_shed_pressure`) plus edge-triggered
  /// `<prefix>_slo_breach_total{slo="<name>:errors"|"<name>:latency"}`
  /// counters — a breach episode counts once, at onset, not per scrape.
  Evaluation export_to(MetricsRegistry& registry, std::string_view prefix);

 private:
  const SlidingWindowAggregator* window_;
  SloConfig config_;
  bool error_breach_latched_ = false;
  bool latency_breach_latched_ = false;
};

}  // namespace phishinghook::obs
