#include "obs/window.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/errors.hpp"

namespace phishinghook::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

SlidingWindowAggregator::SlidingWindowAggregator(WindowConfig config,
                                                 ClockFn clock)
    : config_(config), clock_(clock ? std::move(clock) : steady_seconds) {
  if (!(config_.window_seconds > 0.0)) {
    throw InvalidArgument("window_seconds must be > 0");
  }
  if (config_.bucket_count == 0) {
    throw InvalidArgument("bucket_count must be > 0");
  }
  bucket_width_s_ = config_.window_seconds /
                    static_cast<double>(config_.bucket_count);
  ring_.resize(config_.bucket_count);
}

std::int64_t SlidingWindowAggregator::current_epoch() const {
  const double now_s = clock_();
  std::int64_t epoch =
      static_cast<std::int64_t>(std::floor(now_s / bucket_width_s_));
  // A clock that steps backwards (suspend/resume quirks, or a test probing
  // exactly this) must not resurrect buckets the window already aged out:
  // clamp to the furthest point the ring has reached.
  if (epoch < furthest_epoch_) {
    epoch = furthest_epoch_;
  } else {
    furthest_epoch_ = epoch;
  }
  return epoch;
}

SlidingWindowAggregator::Bucket& SlidingWindowAggregator::bucket_for(
    std::int64_t epoch) {
  Bucket& bucket = ring_[static_cast<std::size_t>(
      epoch % static_cast<std::int64_t>(ring_.size()))];
  if (bucket.epoch != epoch) {
    // Lazy reuse: the slot's previous tenancy (one full window ago, or
    // arbitrarily older after an idle gap / forward jump) ends here.
    bucket = Bucket{};
    bucket.epoch = epoch;
  }
  return bucket;
}

void SlidingWindowAggregator::record(double latency_us, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = bucket_for(current_epoch());
  bucket.total += 1;
  if (!ok) bucket.errors += 1;
  if (latency_us > 0.0) {
    const auto v = static_cast<std::uint64_t>(latency_us);
    bucket.bins[LatencyHistogram::bucket_of(v)] += 1;
    bucket.max_us = std::max(bucket.max_us, v);
  }
}

void SlidingWindowAggregator::record_ok(double latency_us) {
  record(latency_us, /*ok=*/true);
}

void SlidingWindowAggregator::record_error(double latency_us) {
  record(latency_us, /*ok=*/false);
}

SlidingWindowAggregator::Snapshot SlidingWindowAggregator::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t now_epoch = current_epoch();
  const std::int64_t oldest =
      now_epoch - static_cast<std::int64_t>(ring_.size()) + 1;

  Snapshot snap;
  snap.window_seconds = config_.window_seconds;
  LatencyHistogram::Bins bins{};
  std::uint64_t binned = 0;
  for (const Bucket& bucket : ring_) {
    if (bucket.epoch < oldest || bucket.epoch > now_epoch) continue;
    snap.total += bucket.total;
    snap.errors += bucket.errors;
    snap.max_us = std::max(snap.max_us,
                           static_cast<double>(bucket.max_us));
    for (std::size_t b = 0; b < kBins; ++b) {
      bins[b] += bucket.bins[b];
      binned += bucket.bins[b];
    }
  }
  snap.rate_per_sec = static_cast<double>(snap.total) / config_.window_seconds;
  snap.error_ratio = snap.total == 0
                         ? 0.0
                         : static_cast<double>(snap.errors) /
                               static_cast<double>(snap.total);

  const auto quantile = [&](double q) {
    return LatencyHistogram::quantile_of(bins, binned, snap.max_us, q);
  };
  snap.p50_us = quantile(0.50);
  snap.p95_us = quantile(0.95);
  snap.p99_us = quantile(0.99);
  return snap;
}

SloEvaluator::SloEvaluator(const SlidingWindowAggregator& window,
                           SloConfig config)
    : window_(&window), config_(std::move(config)) {
  if (!(config_.target_error_ratio > 0.0)) {
    throw InvalidArgument("target_error_ratio must be > 0");
  }
  if (!(config_.shed_pressure_burn > 0.0)) {
    throw InvalidArgument("shed_pressure_burn must be > 0");
  }
}

SloEvaluator::Evaluation SloEvaluator::evaluate() const {
  Evaluation eval;
  eval.window = window_->snapshot();
  eval.burn_rate = eval.window.error_ratio / config_.target_error_ratio;
  eval.error_breach = eval.burn_rate > 1.0;
  double latency_ratio = 0.0;
  if (config_.target_p99_us > 0.0) {
    latency_ratio = eval.window.p99_us / config_.target_p99_us;
    eval.latency_breach = latency_ratio > 1.0;
  }
  // Pressure rises with whichever budget is burning faster and saturates
  // at shed_pressure_burn — at exactly-on-budget it reads 1/burn, giving
  // the coordinator headroom to shed *before* the breach.
  eval.shed_pressure = clamp01(std::max(eval.burn_rate, latency_ratio) /
                               config_.shed_pressure_burn);
  return eval;
}

SloEvaluator::Evaluation SloEvaluator::export_to(MetricsRegistry& registry,
                                                 std::string_view prefix) {
  const Evaluation eval = evaluate();
  const std::string p(prefix);
  registry.gauge(p + "_window_rate_per_sec").set(eval.window.rate_per_sec);
  registry.gauge(p + "_window_error_ratio").set(eval.window.error_ratio);
  registry.gauge(p + "_window_p50_us").set(eval.window.p50_us);
  registry.gauge(p + "_window_p95_us").set(eval.window.p95_us);
  registry.gauge(p + "_window_p99_us").set(eval.window.p99_us);
  registry.gauge(p + "_error_burn_rate").set(eval.burn_rate);
  registry.gauge(p + "_shed_pressure").set(eval.shed_pressure);
  registry.set_help(p + "_error_burn_rate",
                    "Windowed error ratio over SLO target (1.0 = at budget)");
  registry.set_help(p + "_shed_pressure",
                    "Backoff signal in [0,1] derived from SLO burn rate");

  // Edge-triggered: one increment per breach episode, however often the
  // evaluator runs while the episode lasts.
  if (eval.error_breach && !error_breach_latched_) {
    registry
        .counter(p + "_slo_breach_total",
                 label("slo", config_.name + ":errors"))
        .inc();
  }
  error_breach_latched_ = eval.error_breach;
  if (eval.latency_breach && !latency_breach_latched_) {
    registry
        .counter(p + "_slo_breach_total",
                 label("slo", config_.name + ":latency"))
        .inc();
  }
  latency_breach_latched_ = eval.latency_breach;
  return eval;
}

}  // namespace phishinghook::obs
