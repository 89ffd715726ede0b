// Service metrics: lock-free counters and latency histograms for the
// scoring engine.
//
// Backed by an obs::MetricsRegistry the engine owns privately, so every
// engine's counts stay isolated (tests assert exact values) while still
// getting the registry's full Prometheus exposition via
// ScoringEngine::dump_prometheus(). The handles below are relaxed-atomic
// pointer wrappers — hot-path writes never take a lock.
#pragma once

#include "obs/metrics.hpp"

namespace phishinghook::serve {

// The serving layer's histograms all record microseconds.
using obs::LatencyHistogram;

/// Counters + histograms for one ScoringEngine instance, registered on the
/// engine's private registry.
struct ServiceMetrics {
  obs::MetricsRegistry registry;

  obs::Counter requests_submitted = registry.counter("serve_requests_submitted");
  obs::Counter requests_completed = registry.counter("serve_requests_completed");
  obs::Counter requests_failed =
      registry.counter("serve_requests_failed");  ///< extract/model errors
  obs::Counter requests_degraded =
      registry.counter("serve_requests_degraded");  ///< heavy-stage fallbacks
  obs::Counter requests_shed =
      registry.counter("serve_requests_shed");  ///< queue-full + deadline
  obs::Counter retries =
      registry.counter("serve_retries");  ///< transient extract retries
  obs::Gauge queue_depth =
      registry.gauge("serve_queue_depth");  ///< admitted, not yet batched
  obs::Counter empty_code_requests =
      registry.counter("serve_empty_code_requests");  ///< EOAs / selfdestructs
  obs::Counter batches = registry.counter("serve_batches_total");
  obs::Counter batched_requests =
      registry.counter("serve_batched_requests_total");  ///< sum of batch sizes
  obs::Counter model_invocations = registry.counter("serve_model_invocations");
  obs::Counter model_rows =
      registry.counter("serve_model_rows");  ///< rows through score_batch
  obs::Gauge flat_tree_count =
      registry.gauge("serve_flat_tree_count");  ///< compiled ensemble trees
  obs::Gauge flat_node_count =
      registry.gauge("serve_flat_node_count");  ///< compiled ensemble nodes

  /// Submission -> completion callback.
  LatencyHistogram& request_latency =
      registry.histogram("serve_request_latency_us");
  LatencyHistogram& batch_latency =
      registry.histogram("serve_batch_latency_us");  ///< one drain+score cycle

  // Per-stage latency attribution: where a request's end-to-end latency
  // actually went. Queue-wait is time parked in the request queue (nobody
  // working on it); service is a stage executing on the request's behalf.
  LatencyHistogram& stage_queue_wait = registry.histogram(
      "serve_stage_wait_us", obs::label("stage", "queue"));
  LatencyHistogram& stage_extract = registry.histogram(
      "serve_stage_service_us", obs::label("stage", "extract"));
  LatencyHistogram& stage_predict = registry.histogram(
      "serve_stage_service_us", obs::label("stage", "predict"));

  ServiceMetrics() {
    registry.set_help("serve_requests_submitted",
                      "Scoring requests submitted through try_submit_many()");
    registry.set_help("serve_requests_shed",
                      "Requests dropped by admission control or deadline");
    registry.set_help("serve_requests_degraded",
                      "Requests answered with a stage-0 fallback after a "
                      "heavy cascade stage failed");
    registry.set_help("serve_queue_depth",
                      "Requests admitted but not yet pulled into a batch");
    registry.set_help("serve_request_latency_us",
                      "End-to-end latency, submission to completion callback");
    registry.set_help(
        "serve_stage_wait_us",
        "Queue-wait per pipeline stage (parked, no work happening)");
    registry.set_help(
        "serve_stage_service_us",
        "Service time per pipeline stage (work done on the request)");
  }
};

}  // namespace phishinghook::serve
