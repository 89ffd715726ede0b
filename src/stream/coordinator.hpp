// StreamCoordinator: wires miner → follower → load generator → engine
// into a running pipeline with a graceful start/drain lifecycle.
//
// Three single-purpose threads and the engine's completion callback:
//
//   miner      keeps LiveChain producing blocks (paced to blocks_per_s)
//   follower   tails the chain via BlockFollower, pushes fresh addresses
//   generator  open-loop arrivals (LoadGenerator schedule): each arrival
//              re-queries a known address or pops a fresh one and submits
//              it to the ScoringEngine
//   callback   runs on the engine worker that finished the row: tallies
//              completed/failed/shed, cache hits and the sliding window
//
// The drain protocol runs strictly upstream-to-downstream: stop the miner,
// let the follower surface the last blocks and close the address queue,
// let the generator flush every remaining fresh address (so after a full
// drain fresh_submits == follower.forwarded — an asserted invariant), then
// wait until every submitted row's callback has run. No stage is ever
// cancelled with work still owed to it; the accounting identity
// submitted == completed + failed + shed holds at the end of every run.
// The engine's max_queue is the only bound on rows in flight: a full
// engine sheds, it never blocks the generator.
//
// Reproducibility contract (tested): chain content, dedup counts, and —
// when max_requests bounds the run — the submitted count are pure
// functions of the seeds. Timing-coupled splits (requery vs fresh, shed
// counts, lag highs) legitimately vary run to run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/window.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/block_follower.hpp"
#include "stream/bounded_queue.hpp"
#include "stream/live_chain.hpp"
#include "stream/load_generator.hpp"

namespace phishinghook::stream {

struct StreamConfig {
  FollowerConfig follower;
  ArrivalConfig arrivals;
  /// Chain production rate in paced mode (mainnet ~0.083; dial up to
  /// compress hours of chain time into seconds of wall clock).
  double blocks_per_s = 50.0;
  /// Follower sleep between empty polls.
  std::uint64_t poll_interval_us = 2000;
  /// Paced mode sleeps the miner/generator onto their virtual-time
  /// schedules (honest rates, wall-clock runtime). Unpaced free-runs —
  /// for tests and smoke benches where only the accounting matters.
  bool paced = true;
  std::size_t address_queue_capacity = 4096;
  /// Stop mining after this many blocks (0 = mine until drain).
  std::uint64_t max_blocks = 0;
  /// Stop generating after this many submissions (0 = until drain).
  std::uint64_t max_requests = 0;
  /// Sliding window over row outcomes (rate, error ratio,
  /// latency quantiles for the last window_seconds).
  obs::WindowConfig window;
  /// SLO targets evaluated over that window. "Error" here means a
  /// submission that did not produce a score: extract/model failures
  /// *and* shed requests both burn the budget.
  obs::SloConfig slo;
};

/// End-of-run summary. All fields are totals for this coordinator's run
/// (engine-shared state like the score cache is *not* reset; cache hits
/// here count this run's results only).
struct StreamReport {
  double elapsed_s = 0.0;
  synth::MinerStats miner;
  FollowerStats follower;

  std::uint64_t submitted = 0;
  std::uint64_t fresh_submits = 0;    ///< popped from the follower feed
  std::uint64_t requery_submits = 0;  ///< re-query of a known address
  std::uint64_t starved_arrivals = 0; ///< arrival with nothing to query
  std::uint64_t burst_arrivals = 0;   ///< submissions inside burst windows

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t cache_hit_results = 0;

  double sustained_rows_per_s = 0.0;  ///< completed / elapsed_s
  std::uint64_t ingest_lag_blocks = 0;      ///< at the follower's last poll
  std::uint64_t max_ingest_lag_blocks = 0;

  /// Windowed view at report time (idle decay applies: after a long
  /// drain the window may already be empty) plus the SLO verdict on it.
  obs::SlidingWindowAggregator::Snapshot window;
  double error_burn_rate = 0.0;
  double shed_pressure = 0.0;

  /// The conservation law the engine + pipeline jointly guarantee once
  /// drained: every submission resolved exactly one way.
  bool accounting_ok() const {
    return submitted == completed + failed + shed;
  }
};

class StreamCoordinator {
 public:
  /// Borrows everything; `chain` and `engine` must outlive the
  /// coordinator. `follower_view` overrides the explorer the follower
  /// tails (defaults to chain.explorer()) — pass a chaos decorator
  /// wrapped around chain.explorer() to fault-inject the ingest path.
  StreamCoordinator(LiveChain& chain, serve::ScoringEngine& engine,
                    StreamConfig config = {},
                    const chain::Explorer* follower_view = nullptr);

  /// Drains if still running.
  ~StreamCoordinator();

  StreamCoordinator(const StreamCoordinator&) = delete;
  StreamCoordinator& operator=(const StreamCoordinator&) = delete;

  /// Launches the four pipeline threads. Throws StateError on re-start.
  void start();

  /// True once the generator finished on its own (max_blocks/max_requests
  /// reached), a bounded miner (max_blocks != 0) has mined its last block,
  /// and every submitted row's callback has run. Poll this to detect
  /// natural completion, then drain() to join.
  bool finished() const;

  /// Graceful stop: miner → follower → generator flush, joining each, then
  /// waits until every row's callback has run. Idempotent; also run by the
  /// destructor.
  void drain();

  /// Valid after drain().
  StreamReport report() const;

  /// Per-stage stream_* counters/gauges (live during the run).
  obs::MetricsRegistry& registry() { return metrics_.registry; }

  /// Windowed aggregation over row outcomes (live during the run).
  const obs::SlidingWindowAggregator& window() const { return window_; }

  /// Evaluates the SLO over the current window and publishes the result
  /// into registry() (stream_window_* gauges, stream_error_burn_rate,
  /// stream_shed_pressure, edge-triggered stream_slo_breach_total).
  /// Thread-safe; wire it as a scrape-server pre-scrape hook or call it
  /// from a control loop that wants the shed-pressure signal.
  obs::SloEvaluator::Evaluation evaluate_slo();

  /// Pipeline drain/queue state as a JSON object — the /healthz body.
  std::string health_json() const;

 private:
  struct StreamMetrics {
    obs::MetricsRegistry registry;
    obs::Counter submitted = registry.counter("stream_requests_submitted");
    obs::Counter fresh = registry.counter("stream_fresh_submits");
    obs::Counter requery = registry.counter("stream_requery_submits");
    obs::Counter starved = registry.counter("stream_starved_arrivals");
    obs::Counter burst = registry.counter("stream_burst_arrivals");
    obs::Counter completed = registry.counter("stream_requests_completed");
    obs::Counter failed = registry.counter("stream_requests_failed");
    obs::Counter shed = registry.counter("stream_requests_shed");
    obs::Counter cache_hits = registry.counter("stream_cache_hit_results");
    obs::Gauge blocks_mined = registry.gauge("stream_blocks_mined");
    obs::Gauge deployments_seen = registry.gauge("stream_deployments_seen");
    obs::Gauge forwarded = registry.gauge("stream_forwarded_total");
    obs::Gauge dedup_hit_rate = registry.gauge("stream_dedup_hit_rate");
    obs::Gauge ingest_lag = registry.gauge("stream_ingest_lag_blocks");
    obs::Gauge max_ingest_lag =
        registry.gauge("stream_max_ingest_lag_blocks");
    /// Queue-wait between follower push and generator pop — the stream
    /// pipeline's own stage-attribution histogram (the engine covers its
    /// queue/extract/predict stages in serve_stage_*).
    obs::LatencyHistogram& addr_queue_wait = registry.histogram(
        "stream_stage_wait_us", obs::label("stage", "addr_queue"));
  };

  /// A fresh address plus the causal identity minted at ingest; travels
  /// by value through the address queue into the engine.
  struct StampedAddress {
    evm::Address address;
    obs::RequestContext ctx;
  };

  void miner_loop();
  void follower_loop();
  void generator_loop();
  /// One submission from the generator thread; false when the engine
  /// stopped accepting work. `ctx` continues a lane minted at ingest
  /// (fresh pops); requeries pass none and the engine mints at admission.
  bool submit_one(const evm::Address& address, bool fresh,
                  obs::RequestContext ctx = {});
  /// Records how long a popped fresh address sat in the address queue
  /// (histogram + "req.addr_queue" stage slice + flow step).
  void note_addr_queue_wait(StampedAddress& stamped);
  /// The engine completion: tallies one row's outcome, then takes it out
  /// of flight. Runs on an engine worker (or the generator, for a row
  /// shed at admission).
  void record_outcome(const serve::ScoreResult& result);

  LiveChain* chain_;
  serve::ScoringEngine* engine_;
  StreamConfig config_;
  BlockFollower follower_;
  LoadGenerator generator_;
  StreamMetrics metrics_;

  BoundedQueue<StampedAddress> addresses_;

  obs::SlidingWindowAggregator window_;
  obs::SloEvaluator slo_;      ///< evaluates window_; guarded by slo_mutex_
  std::mutex slo_mutex_;

  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> stop_mining_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> miner_done_{false};
  std::atomic<bool> generator_done_{false};

  /// Rows submitted whose callback has not finished. Callbacks decrement
  /// it under in_flight_mutex_, which drain() waits on.
  std::atomic<std::uint64_t> in_flight_{0};
  std::mutex in_flight_mutex_;
  std::condition_variable in_flight_cv_;

  /// Generator-thread state (touched only there, read after join).
  std::vector<evm::Address> known_;
  std::uint64_t submitted_ = 0;

  double elapsed_s_ = 0.0;

  std::thread miner_thread_;
  std::thread follower_thread_;
  std::thread generator_thread_;
};

}  // namespace phishinghook::stream
