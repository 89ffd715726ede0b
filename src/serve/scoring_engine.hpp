// Online scoring engine: batched, multi-threaded contract scoring.
//
// The deployment scenario (§IV-F) is a stream of addresses arriving from
// wallets and monitors that must be answered within a signing budget of
// seconds. Most of that traffic re-asks about contracts already scored, so
// the engine answers cache hits on the submitting thread and queues the
// rest for a worker pool that drains the queue in batches:
//
//   try_submit_many(addrs, on_done)
//     -> probe, on the caller: stored code hash (try-lock) -> score cache?
//          hit: on_done(row, result) right there, no queue, no wake
//     -> miss / fault / busy try-read (miner writing): [bounded queue]
//     -> worker: shed expired deadlines
//     -> stored code + hash (retried) -> score cache?
//          code another worker is scoring: handed to that worker
//     -> one score_batch per batch -> cache fill
//     -> on_done(row, result)
//
// Completion is one mechanism, a callback per row, run on whichever thread
// finished the row: the submitting thread for a cache hit or a row shed at
// admission, a worker otherwise. The socket front end replies from it, the
// stream pipeline tallies in it, and submit/try_submit (futures) and
// score_all are thin adapters over it.
//
// The chain is content-addressed (chain::State keeps each code once, keyed
// by its Keccak hash, and every account stores its hash), so the probe
// reads a stored hash and a pointer; nothing is copied or hashed per
// request. A row the probe missed is probed again by its worker, which
// finds the scores that earlier batches cached while the row queued (a
// burst of repeats of one new code misses at submission, then hits). A
// code that another worker is scoring at that moment is not scored twice:
// the row is handed to that worker, which answers it when the score lands.
// The submission probe counts only its hits, so each row counts once in
// the cache stats. The worker keys the cache only by the hash it fetched
// together with the code: if the account's code changed in between (a
// metamorphic contract redeployed at the same address), the new code is
// probed and scored under its own hash.
//
// The detector is any ml::Scorer — a single fitted model of any family,
// or a composite like serve::CascadeScorer. Batching exists because
// scorers are batch-oriented (one feature-extraction + model pass
// amortizes over the batch) and because duplicate code hashes inside a
// batch collapse to a single model row.
//
// Batches form by arrival, never by timer: a worker that wakes takes
// whatever is queued, up to `max_batch`, at once. Under sparse load every
// request is its own batch and pays no hold; under load, requests that
// queued while the workers were busy share the next batch. Callers that
// hold a whole list (score_all, phook_scoreBatch) admit it as one wave
// through try_submit_many, so a 64-row list becomes two full 32-row
// batches with no waiting. Against the former fixed 200 µs hold, perfbench
// medians on a 4-vCPU shared host (30 s runs): rpc_single latency p50
// 480 -> 194 µs, stream_follow p50 282 -> 25 µs, rpc_batch_cold
// 64.8k -> 72.7k rows/s.
//
// Fault isolation contract: the inputs are adversarial and the upstream is
// unreliable, so *no request outcome is an exception*. Every admitted row
// completes exactly once with a ScoreResult carrying a definite
// ScoreStatus; a throwing extract is confined to its slot (after
// RetryPolicy-governed retries of transient faults), a throwing
// score_batch fails only the slots that actually needed the model — cache
// hits and empty-code slots in the same batch still deliver their valid
// results — and a failing *heavy* cascade
// stage downgrades its rows to the stage-0 score (kDegraded, not cached)
// instead of failing them. Overload is handled by
// admission control (`max_queue`, reject-on-full, counted on queued rows
// only: a cache hit never queues and so is never shed) and per-request
// deadlines (`deadline_us`, expired requests shed before batching), both
// reported through the kShed status rather than silent drops:
// requests_completed + requests_failed + requests_shed always equals
// requests_submitted once the queue drains.
//
// Thread-safety contract: the detector passed in must have a read-only,
// concurrently callable score_batch (true for every fitted adapter —
// vocabulary/encoder/tokenizer and model weights are immutable at
// inference time — and for CascadeScorer over such stages). The workers
// are the only parallelism on the serving path: each runs the parallel
// regions its score_batch opens (histogram transform, flat-tree walk,
// cascade stages) inline (common::run_regions_inline), so one batch never
// fans out into the training pool and never waits on it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chain/explorer.hpp"
#include "common/retry.hpp"
#include "common/timer.hpp"
#include "ml/scorer.hpp"
#include "obs/request_context.hpp"
#include "serve/metrics.hpp"
#include "serve/score_cache.hpp"

namespace phishinghook::serve {

struct EngineConfig {
  /// Scoring threads; 0 = PHISHINGHOOK_THREADS (default hardware
  /// concurrency), the same knob that sizes the training thread pool.
  std::size_t workers = 4;
  std::size_t max_batch = 32;
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Admission control: maximum queued (not yet batched) requests.
  /// 0 = unbounded. A row that must queue against a full queue resolves
  /// immediately with ScoreStatus::kShed; cache hits answered at
  /// submission never queue and are never shed.
  std::size_t max_queue = 0;
  /// Per-request deadline measured from submit(); 0 = none. Requests still
  /// queued past their deadline are shed (kShed) before any extract or
  /// model work is spent on them.
  std::uint64_t deadline_us = 0;
  /// Retry schedule for *transient* extract faults
  /// (common::TransientError); permanent faults fail the slot immediately.
  common::RetryPolicy extract_retry;
};

/// Definite outcome of a scoring request. Every completion carries one of
/// these — never an exception.
enum class ScoreStatus {
  kOk,            ///< scored (model or cache)
  kEmptyCode,     ///< EOA / destroyed contract (scored as 0)
  kDegraded,      ///< heavy cascade stage failed; stage-0 score delivered
  kExtractError,  ///< eth_getCode failed after retries
  kModelError,    ///< score_batch threw for this slot's batch
  kShed,          ///< dropped by admission control or deadline
};

/// Stable lowercase label for expositions and CLI summaries.
const char* to_string(ScoreStatus status);

/// One completed scoring request.
struct ScoreResult {
  evm::Address address;
  ScoreStatus status = ScoreStatus::kOk;
  double probability = 0.0;   ///< P(phishing); 0 unless kOk/kDegraded
  bool flagged = false;       ///< probability >= 0.5
  bool cache_hit = false;     ///< served from the score cache
  std::uint32_t stage = 0;    ///< cascade stage that produced the score
  std::string model;          ///< model behind that stage, "" if unscored
  std::string error;          ///< diagnostic, empty when ok/empty_code
  double latency_us = 0.0;    ///< submit -> completion
  double queue_wait_us = 0.0;  ///< time parked in the engine queue (0 for
                               ///< a hit answered at submission)
  std::uint64_t trace_id = 0;  ///< causal id; nonzero once a ctx was minted

  /// The request produced a usable score (kOk, a kDegraded fallback, or
  /// the deliberate 0.0 of kEmptyCode).
  bool ok() const {
    return status == ScoreStatus::kOk || status == ScoreStatus::kEmptyCode ||
           status == ScoreStatus::kDegraded;
  }
};

class ScoringEngine {
 public:
  /// The engine borrows `detector` and `explorer`; both must outlive it.
  /// Any ml::Scorer works — a fitted PhishingClassifier adapter of any
  /// model family, or a composite like serve::CascadeScorer; the engine's
  /// batch loop only speaks the score_batch contract.
  ScoringEngine(const chain::Explorer& explorer, ml::Scorer& detector,
                EngineConfig config = {});

  /// Drains the queue, joins the workers.
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  /// Runs once per admitted row, with the row's index in the submitted
  /// list, on the thread that finished the row: a worker, or the
  /// submitting thread itself — inside try_submit_many — for a cache hit
  /// answered at submission or a row shed at admission. So it must neither
  /// block, nor throw, nor take a lock the submitting thread may hold
  /// while it calls try_submit_many.
  using Completion = std::function<void(std::size_t index, ScoreResult result)>;

  /// The admission primitive: admits a whole list as one wave and returns
  /// true; `on_done` then runs once per row. Returns false once shutdown()
  /// began (no row admitted or answered, no counter moved, `on_done` never
  /// run). Every row is first probed on the calling thread — the account's
  /// stored code hash, read without waiting for the chain lock, then the
  /// score cache — and a hit completes there with `cache_hit`, a zero
  /// queue wait and a latency timed from entry. The other rows (misses,
  /// fetch faults, a busy read while the miner writes, empty code) are
  /// queued under one lock, in order, while the queue has room
  /// (`max_queue`); the rest complete at once with kShed ("queue full";
  /// "scoring engine is shutting down" if shutdown() began while the wave
  /// was probed). One
  /// worker is woken per `max_batch` queued rows, and never fewer than
  /// two, so a lone row waits for the faster of two wakes. A valid ctx (a
  /// causal lane begun upstream: follower, load generator, socket) is
  /// shared by every row; otherwise each row mints its own. The hand-off
  /// stamp is refreshed at enqueue, so queue-wait attribution measures
  /// *this* queue only.
  bool try_submit_many(std::span<const evm::Address> addresses,
                       obs::RequestContext ctx, Completion on_done);

  /// Future adapter: a one-row wave whose future resolves on completion,
  /// or nullopt once shutdown() began. A full queue still yields a kShed
  /// result — nullopt strictly means "engine no longer accepts work".
  std::optional<std::future<ScoreResult>> try_submit(
      const evm::Address& address, obs::RequestContext ctx = {});

  /// try_submit that throws StateError after shutdown() began — the only
  /// exception this API surfaces.
  std::future<ScoreResult> submit(const evm::Address& address,
                                  obs::RequestContext ctx = {});

  /// Convenience: admit a whole address list as one wave and wait for
  /// every row; results come back in input order. Throws StateError after
  /// shutdown() began.
  std::vector<ScoreResult> score_all(const std::vector<evm::Address>& addresses);

  /// Stops accepting work, finishes what is queued, joins workers.
  /// Idempotent; also run by the destructor.
  void shutdown();

  const ServiceMetrics& metrics() const { return metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }

  /// The scorer this engine serves (e.g. for the RPC health handler to
  /// describe cascade stages).
  ml::Scorer& scorer() { return *detector_; }
  const ml::Scorer& scorer() const { return *detector_; }

  /// Syncs pull-model state (score-cache stats, the scorer's own gauges
  /// such as the cascade escalation rate) into the engine registry. Wire
  /// as a net::JsonRpcServer pre-scrape hook so /metrics always shows
  /// fresh serve_cache_* / serve_cascade_* values.
  void export_pull_metrics() {
    cache_.export_metrics(metrics_.registry);
    detector_->export_metrics(metrics_.registry);
  }

  /// The engine's private registry, scrapable alongside the global one.
  const obs::MetricsRegistry& prometheus_registry() const {
    return metrics_.registry;
  }

  /// Full Prometheus-style exposition of the engine's private registry
  /// (ServiceMetrics counters/histograms plus a serve_cache_* snapshot).
  void dump_prometheus(std::ostream& out) {
    export_pull_metrics();
    metrics_.registry.write_prometheus(out);
  }

 private:
  struct Request {
    evm::Address address;
    std::shared_ptr<const Completion> on_done;  ///< shared by the wave
    std::size_t index = 0;       ///< row position in the submitted list
    common::Timer queued;        ///< starts on entry to try_submit_many
    obs::RequestContext ctx;     ///< causal identity, hand-off restamped
    double queue_wait_us = 0.0;  ///< filled when the batch pops it
  };

  void worker_loop();
  /// Pops whatever is queued, up to max_batch requests, as soon as the
  /// queue is non-empty. Returns an empty batch only when stopping and
  /// drained.
  std::vector<Request> next_batch();
  void process_batch(std::vector<Request> batch);

  /// The submission probe: answers `request` from the score cache on the
  /// calling thread and returns true, or returns false for the queue to
  /// handle. Counts only a hit in the cache stats: the worker's probe
  /// counts the rest.
  bool answer_from_cache(Request& request);

  /// The account's stored code and hash, with the configured
  /// transient-fault retry schedule.
  chain::StoredCode fetch_code(const evm::Address& address);

  /// Completes one request: stamps address + latency, records the latency
  /// histogram and the completed/failed/shed counter for the status, and
  /// runs the row's completion.
  void deliver(Request& request, ScoreResult result);

  const chain::Explorer* explorer_;
  ml::Scorer* detector_;
  EngineConfig config_;

  ShardedScoreCache cache_;
  ServiceMetrics metrics_;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  /// Code hashes a worker is scoring right now, each with the rows of
  /// other batches that wait for that score (see process_batch).
  std::mutex inflight_mutex_;
  std::unordered_map<evm::Hash256, std::vector<Request>, evm::DigestHash>
      inflight_;

  std::vector<std::thread> workers_;
};

}  // namespace phishinghook::serve
