#include "serve/scoring_engine.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <latch>
#include <memory>
#include <unordered_map>

#include "common/errors.hpp"
#include "common/thread_pool.hpp"
#include "ml/flat_tree.hpp"
#include "obs/trace.hpp"

namespace phishinghook::serve {

const char* to_string(ScoreStatus status) {
  switch (status) {
    case ScoreStatus::kOk: return "ok";
    case ScoreStatus::kEmptyCode: return "empty_code";
    case ScoreStatus::kDegraded: return "degraded";
    case ScoreStatus::kExtractError: return "extract_error";
    case ScoreStatus::kModelError: return "model_error";
    case ScoreStatus::kShed: return "shed";
  }
  return "unknown";
}

ScoringEngine::ScoringEngine(const chain::Explorer& explorer,
                             ml::Scorer& detector, EngineConfig config)
    : explorer_(&explorer),
      detector_(&detector),
      config_(config),
      cache_(config.cache_capacity) {
  // workers == 0 = auto: the same PHISHINGHOOK_THREADS knob that sizes the
  // training thread pool sizes the serving pool.
  if (config_.workers == 0) {
    config_.workers = common::ThreadPool::configured_threads();
  }
  if (config_.max_batch == 0) throw InvalidArgument("max_batch must be > 0");
  // Tree detectors serve through a compiled FlatTreeEnsemble; export its
  // compile-time shape so operators can see which inference path is live.
  if (const ml::FlatTreeEnsemble* flat = detector_->flat_ensemble()) {
    metrics_.flat_tree_count.set(static_cast<double>(flat->tree_count()));
    metrics_.flat_node_count.set(static_cast<double>(flat->node_count()));
  }
  // Composite scorers (the cascade) register their hot-path instruments on
  // this engine's private registry, next to the serve_* series.
  detector_->bind_metrics(metrics_.registry);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ScoringEngine::~ScoringEngine() { shutdown(); }

void ScoringEngine::deliver(Request& request, ScoreResult result) {
  result.address = request.address;
  result.latency_us = request.queued.seconds() * 1e6;
  result.queue_wait_us = request.queue_wait_us;
  result.trace_id = request.ctx.trace_id;
  // Terminal stage of the causal lane: close the umbrella async slice and
  // finish the flow arrow before the completion hands the result on.
  obs::finish_request(request.ctx);
  // Every terminal outcome records latency — failed and shed requests held
  // capacity too, and hiding them would flatter the percentiles.
  metrics_.request_latency.record(result.latency_us);
  switch (result.status) {
    case ScoreStatus::kOk:
    case ScoreStatus::kEmptyCode:
      metrics_.requests_completed.inc();
      break;
    case ScoreStatus::kDegraded:
      // A degraded request *was* answered with a usable score — it counts
      // as completed, with its own counter so operators see the fallback.
      metrics_.requests_completed.inc();
      metrics_.requests_degraded.inc();
      break;
    case ScoreStatus::kExtractError:
    case ScoreStatus::kModelError:
      metrics_.requests_failed.inc();
      break;
    case ScoreStatus::kShed:
      metrics_.requests_shed.inc();
      break;
  }
  (*request.on_done)(request.index, std::move(result));
}

std::future<ScoreResult> ScoringEngine::submit(const evm::Address& address,
                                               obs::RequestContext ctx) {
  std::optional<std::future<ScoreResult>> future =
      try_submit(address, std::move(ctx));
  if (!future.has_value()) {
    throw StateError("ScoringEngine::submit after shutdown");
  }
  return std::move(*future);
}

std::optional<std::future<ScoreResult>> ScoringEngine::try_submit(
    const evm::Address& address, obs::RequestContext ctx) {
  auto promise = std::make_shared<std::promise<ScoreResult>>();
  std::future<ScoreResult> future = promise->get_future();
  if (!try_submit_many({&address, 1}, std::move(ctx),
                       [promise](std::size_t, ScoreResult result) {
                         promise->set_value(std::move(result));
                       })) {
    return std::nullopt;
  }
  return future;
}

bool ScoringEngine::try_submit_many(std::span<const evm::Address> addresses,
                                    obs::RequestContext ctx,
                                    Completion on_done) {
  obs::Tracer& tracer = obs::Tracer::global();
  const auto done = std::make_shared<const Completion>(std::move(on_done));
  std::vector<Request> wave(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    wave[i].address = addresses[i];
    wave[i].on_done = done;
    wave[i].index = i;
    wave[i].ctx = ctx.valid() ? ctx : obs::mint_request(tracer);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // The lanes end here (whether we minted them or they arrived from
      // upstream, they were handed to us by value) — close them instead of
      // leaving unclosed async slices in the trace.
      for (Request& request : wave) obs::finish_request(request.ctx, tracer);
      return false;
    }
  }
  metrics_.requests_submitted.inc(wave.size());

  // Probe the whole wave before queueing any of it: whether a row is a hit
  // then depends on the cache as the wave found it, not on how fast the
  // workers drain the wave's own earlier rows.
  std::vector<Request> misses;
  misses.reserve(wave.size());
  for (Request& request : wave) {
    if (!answer_from_cache(request)) misses.push_back(std::move(request));
  }

  // Restamp the hand-off: from here queue-wait means *this* queue, not
  // whatever upstream hop the context already traveled.
  const double handoff_us = tracer.now_us();
  std::size_t admitted = 0;
  bool stopping = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // shutdown() may have begun while the wave was probed, and its workers
    // may already have drained and left: queue nothing then.
    stopping = stopping_;
    for (Request& request : misses) {
      if (stopping) break;
      if (config_.max_queue != 0 && queue_.size() >= config_.max_queue) break;
      request.ctx.handoff_us = handoff_us;
      queue_.push_back(std::move(request));
      ++admitted;
    }
    metrics_.queue_depth.set(static_cast<double>(queue_.size()));
  }
  // One worker per batch's worth of rows (a 64-row wave wakes two workers
  // that each take a full batch), and never fewer than two: a sleeping
  // worker's CPU may be idle, and on a VM waking it waits on the host
  // scheduler. The first worker to run takes the rows; the other finds the
  // queue empty and sleeps again, so queue wait is the faster of two wakes.
  if (admitted > 0) {
    const std::size_t wakes = std::max<std::size_t>(
        2, (admitted + config_.max_batch - 1) / config_.max_batch);
    for (std::size_t i = 0; i < wakes; ++i) queue_cv_.notify_one();
  }
  // Reject-on-full: complete right here instead of letting the queue grow
  // without bound — the caller learns immediately and can back off.
  for (std::size_t i = admitted; i < misses.size(); ++i) {
    ScoreResult shed;
    shed.status = ScoreStatus::kShed;
    shed.error = stopping ? "scoring engine is shutting down"
                          : "queue full (max_queue=" +
                                std::to_string(config_.max_queue) + ")";
    deliver(misses[i], std::move(shed));
  }
  return true;
}

bool ScoringEngine::answer_from_cache(Request& request) {
  obs::Tracer& tracer = obs::Tracer::global();
  const double start_us = tracer.now_us();
  std::optional<chain::StoredCode> stored;
  try {
    stored = explorer_->stored_code(request.address, chain::ReadMode::kTry);
  } catch (...) {
    return false;  // a faulting fetch is the worker's, with its retries
  }
  if (!stored || stored->code->empty()) return false;
  // A miss is not counted here: the worker probes the row again, and
  // counts that probe.
  const std::optional<CachedScore> cached =
      cache_.get(stored->hash, /*count_miss=*/false);
  if (!cached) return false;
  const double end_us = tracer.now_us();
  metrics_.stage_queue_wait.record(0.0);
  metrics_.stage_extract.record(end_us - start_us);
  obs::stage_slice(request.ctx, "req.extract", start_us, end_us, tracer);
  ScoreResult result;
  result.cache_hit = true;
  result.probability = cached->probability;
  result.flagged = result.probability >= 0.5;
  result.stage = cached->stage;
  result.model = detector_->stage_model(cached->stage);
  deliver(request, std::move(result));
  return true;
}

std::vector<ScoreResult> ScoringEngine::score_all(
    const std::vector<evm::Address>& addresses) {
  // Shared: a worker may still be unwinding its completion after the wait.
  auto results = std::make_shared<std::vector<ScoreResult>>(addresses.size());
  auto landed = std::make_shared<std::latch>(
      static_cast<std::ptrdiff_t>(addresses.size()));
  if (!try_submit_many(addresses, {},
                       [results, landed](std::size_t index, ScoreResult row) {
                         (*results)[index] = std::move(row);
                         landed->count_down();
                       })) {
    throw StateError("ScoringEngine::score_all after shutdown");
  }
  landed->wait();
  return std::move(*results);
}

void ScoringEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ScoringEngine::worker_loop() {
  // The workers are the serving path's parallelism: a region the detector
  // opens inside score_batch runs on this worker instead of splitting one
  // batch over the training pool and blocking on it.
  common::run_regions_inline();
  for (;;) {
    std::vector<Request> batch = next_batch();
    if (batch.empty()) return;  // stopping and drained
    process_batch(std::move(batch));
  }
}

std::vector<ScoringEngine::Request> ScoringEngine::next_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  // Batch by arrival: take whatever queued while the workers were busy, at
  // once. An empty queue here means stopping and drained.
  const std::size_t take = std::min(queue_.size(), config_.max_batch);
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  metrics_.queue_depth.set(static_cast<double>(queue_.size()));
  return batch;
}

chain::StoredCode ScoringEngine::fetch_code(const evm::Address& address) {
  // A waiting read always yields a value; value() turns a subclass that
  // breaks that promise into an extract error, not a crash.
  return config_.extract_retry.run(
      [&] { return explorer_->stored_code(address).value(); },
      /*salt=*/static_cast<std::uint64_t>(std::hash<evm::Address>{}(address)),
      [this] { metrics_.retries.inc(); });
}

void ScoringEngine::process_batch(std::vector<Request> batch) {
  obs::ScopedSpan batch_span("serve.batch");
  obs::Tracer& tracer = obs::Tracer::global();

  // Every popped request just finished its queue-wait stage — attribute it
  // before anything else (deadline-shed requests waited too, and their
  // wait is exactly why they are being shed).
  const double popped_us = tracer.now_us();
  for (Request& request : batch) {
    request.queue_wait_us = request.ctx.wait_us(popped_us);
    metrics_.stage_queue_wait.record(request.queue_wait_us);
    obs::stage_slice(request.ctx, "req.queue", request.ctx.handoff_us,
                     popped_us, tracer);
    if (request.ctx.valid()) tracer.flow_step(request.ctx.trace_id);
  }

  // Deadline shedding first: a request that already blew its budget gets no
  // extract or model work, and does not count toward batch occupancy.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (config_.deadline_us != 0 &&
        request.queued.seconds() * 1e6 > static_cast<double>(
                                             config_.deadline_us)) {
      ScoreResult shed;
      shed.status = ScoreStatus::kShed;
      shed.error = "deadline exceeded (deadline_us=" +
                   std::to_string(config_.deadline_us) + ")";
      deliver(request, std::move(shed));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  metrics_.batches.inc();
  metrics_.batched_requests.inc(live.size());
  common::ScopedTimer batch_timer(
      [this](double s) { metrics_.batch_latency.record(s * 1e6); });

  struct Slot {
    chain::StoredCode stored;  ///< the code and the hash read with it
    double probability = 0.0;
    std::uint32_t stage = 0;
    ScoreStatus status = ScoreStatus::kOk;
    std::string error;
    bool cache_hit = false;
    bool handed_off = false;  ///< answered by the worker scoring its code
  };
  std::vector<Slot> slots(live.size());

  // Pull bytecode, probe the cache, and collapse duplicate code hashes so
  // each unique miss costs exactly one model row. Extraction is per-slot
  // fault-isolated: one hostile address fails its own slot, never the
  // batch, never the worker.
  std::unordered_map<evm::Hash256, std::size_t, evm::DigestHash> miss_index;
  std::vector<const evm::Bytecode*> miss_codes;
  std::vector<std::vector<std::size_t>> miss_slots;
  std::vector<std::size_t> unscored;
  obs::ScopedSpan extract_span("serve.extract");
  for (std::size_t i = 0; i < live.size(); ++i) {
    Slot& slot = slots[i];
    // Per-slot service timing: fetch + cache probe is the extract stage
    // this request experienced, whatever its outcome.
    const double slot_start_us = tracer.now_us();
    [&] {
      try {
        slot.stored = fetch_code(live[i].address);
      } catch (const std::exception& e) {
        slot.status = ScoreStatus::kExtractError;
        slot.error = e.what();
        return;
      } catch (...) {
        slot.status = ScoreStatus::kExtractError;
        slot.error = "unknown extract error";
        return;
      }
      if (slot.stored.code->empty()) {
        slot.status = ScoreStatus::kEmptyCode;
        metrics_.empty_code_requests.inc();
        return;
      }
      // Probed again even if the submission probe missed: an earlier
      // batch may have cached this code while the row queued. A miss is
      // counted when the row is claimed below.
      if (const std::optional<CachedScore> cached =
              cache_.get(slot.stored.hash, /*count_miss=*/false)) {
        slot.probability = cached->probability;
        slot.stage = cached->stage;
        slot.cache_hit = true;
        return;
      }
      unscored.push_back(i);
    }();
    const double slot_end_us = tracer.now_us();
    metrics_.stage_extract.record(slot_end_us - slot_start_us);
    obs::stage_slice(live[i].ctx, "req.extract", slot_start_us, slot_end_us,
                     tracer);
  }
  extract_span.end();

  // Claim the missed hashes under one lock. A hash another worker is
  // scoring right now is handed to that worker, which answers the row once
  // the score lands, so a burst of one new code across concurrent batches
  // costs one model row. Otherwise the row probes once more, counted (the
  // score may have landed since the first probe), and on a miss this
  // batch scores it.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (const std::size_t i : unscored) {
      Slot& slot = slots[i];
      const evm::Hash256& hash = slot.stored.hash;
      if (!miss_index.contains(hash)) {
        if (const auto it = inflight_.find(hash); it != inflight_.end()) {
          it->second.push_back(std::move(live[i]));
          slot.handed_off = true;
          continue;
        }
      }
      if (const std::optional<CachedScore> cached = cache_.get(hash)) {
        slot.probability = cached->probability;
        slot.stage = cached->stage;
        slot.cache_hit = true;
        continue;
      }
      const auto [it, inserted] = miss_index.try_emplace(hash,
                                                         miss_codes.size());
      if (inserted) {
        miss_codes.push_back(slot.stored.code.get());
        miss_slots.emplace_back();
        inflight_.try_emplace(hash);
      }
      miss_slots[it->second].push_back(i);
    }
  }

  std::vector<std::vector<Request>> handed(miss_codes.size());
  if (!miss_codes.empty()) {
    std::vector<ml::ScoredRow> rows(miss_codes.size());
    bool scored = false;
    std::string model_error;
    const double predict_start_us = tracer.now_us();
    try {
      obs::ScopedSpan predict_span("serve.predict");
      detector_->score_batch(miss_codes, rows);
      scored = true;
    } catch (const std::exception& e) {
      model_error = e.what();
    } catch (...) {
      model_error = "unknown model error";
    }
    const double predict_end_us = tracer.now_us();
    // The whole miss group shares one model invocation, so each request in
    // it experienced the full invocation as its predict service time —
    // success or failure alike (a throwing model still cost the wall time).
    for (const std::vector<std::size_t>& group : miss_slots) {
      for (std::size_t slot_id : group) {
        metrics_.stage_predict.record(predict_end_us - predict_start_us);
        obs::stage_slice(live[slot_id].ctx, "req.predict", predict_start_us,
                         predict_end_us, tracer);
      }
    }
    if (scored) {
      metrics_.model_invocations.inc();
      metrics_.model_rows.inc(miss_codes.size());
      for (std::size_t u = 0; u < miss_codes.size(); ++u) {
        // Degraded (heavy-stage-fault fallback) scores are deliberately
        // not cached: the next request for this code hash retries the
        // heavy stage instead of pinning the fallback until eviction.
        if (!rows[u].degraded) {
          // Keyed by the hash read together with the scored code, never
          // by the hash the submission probe read.
          cache_.put(slots[miss_slots[u].front()].stored.hash,
                     CachedScore{rows[u].probability, rows[u].stage});
        }
        for (std::size_t slot_id : miss_slots[u]) {
          slots[slot_id].probability = rows[u].probability;
          slots[slot_id].stage = rows[u].stage;
          if (rows[u].degraded) {
            slots[slot_id].status = ScoreStatus::kDegraded;
          }
        }
      }
    } else {
      // Model failure poisons only the slots that needed the model; cache
      // hits and empty-code slots in this batch still deliver below.
      for (const std::vector<std::size_t>& group : miss_slots) {
        for (std::size_t slot_id : group) {
          slots[slot_id].status = ScoreStatus::kModelError;
          slots[slot_id].error = model_error;
        }
      }
    }
    // Release the claims after the cache fill, so a row that finds a hash
    // no longer claimed finds its score cached (unless it failed or was
    // degraded, which the next batch retries). Each claim is this batch's
    // alone: the claim check and the insert above share the lock.
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (std::size_t u = 0; u < miss_codes.size(); ++u) {
      auto node = inflight_.extract(slots[miss_slots[u].front()].stored.hash);
      handed[u] = std::move(node.mapped());
    }
  }

  const auto result_of = [this](const Slot& slot) {
    ScoreResult result;
    result.status = slot.status;
    result.cache_hit = slot.cache_hit;
    result.error = slot.error;
    if (slot.status == ScoreStatus::kOk ||
        slot.status == ScoreStatus::kDegraded) {
      result.probability = slot.probability;
      result.flagged = result.probability >= 0.5;
      result.stage = slot.stage;
      result.model = detector_->stage_model(slot.stage);
    }
    return result;
  };
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!slots[i].handed_off) deliver(live[i], result_of(slots[i]));
  }
  // A handed-over row gets the score it waited for, and its counted probe
  // is made now that the score has landed in the cache.
  for (std::size_t u = 0; u < miss_codes.size(); ++u) {
    const Slot& owner = slots[miss_slots[u].front()];
    for (Request& request : handed[u]) {
      ScoreResult result = result_of(owner);
      result.cache_hit = cache_.get(owner.stored.hash).has_value();
      deliver(request, std::move(result));
    }
  }
}

}  // namespace phishinghook::serve
