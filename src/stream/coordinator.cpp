#include "stream/coordinator.hpp"

#include <sstream>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace phishinghook::stream {

namespace {
constexpr std::chrono::microseconds kStarvedBackoff(100);
}  // namespace

StreamCoordinator::StreamCoordinator(LiveChain& chain,
                                     serve::ScoringEngine& engine,
                                     StreamConfig config,
                                     const chain::Explorer* follower_view)
    : chain_(&chain),
      engine_(&engine),
      config_(config),
      follower_(follower_view != nullptr ? *follower_view : chain.explorer(),
                config.follower),
      generator_(config.arrivals),
      addresses_(kAddressQueueCapacity, "addresses"),
      window_(config.window),
      slo_(window_, config.slo) {}

StreamCoordinator::~StreamCoordinator() { drain(); }

void StreamCoordinator::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    throw StateError("StreamCoordinator::start called twice");
  }
  epoch_ = std::chrono::steady_clock::now();
  miner_thread_ = std::thread([this] { miner_loop(); });
  follower_thread_ = std::thread([this] { follower_loop(); });
  generator_thread_ = std::thread([this] { generator_loop(); });
}

bool StreamCoordinator::finished() const {
  // A bounded miner counts too: an unpaced generator can reach
  // max_requests before the last block is mined, and drain() would then
  // stop the miner short of max_blocks.
  const bool miner_done = config_.max_blocks == 0 ||
                          miner_done_.load(std::memory_order_acquire);
  return miner_done && generator_done_.load(std::memory_order_acquire) &&
         in_flight_ == 0;
}

void StreamCoordinator::drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!drained_.compare_exchange_strong(expected, true)) return;
  obs::ScopedSpan span("stream.drain");
  // Upstream first: stop producing, then each stage finishes what its
  // upstream already owes it before closing its own output.
  drain_requested_.store(true, std::memory_order_release);
  stop_mining_.store(true, std::memory_order_release);
  if (miner_thread_.joinable()) miner_thread_.join();
  if (follower_thread_.joinable()) follower_thread_.join();
  if (generator_thread_.joinable()) generator_thread_.join();
  {
    std::unique_lock<std::mutex> lock(in_flight_mutex_);
    in_flight_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  elapsed_s_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
}

void StreamCoordinator::miner_loop() {
  std::uint64_t mined = 0;
  while (!stop_mining_.load(std::memory_order_acquire)) {
    chain_->mine_next_block();
    mined += 1;
    metrics_.blocks_mined.set(static_cast<double>(mined));
    if (config_.max_blocks != 0 && mined >= config_.max_blocks) break;
    if (config_.paced) {
      std::this_thread::sleep_until(
          epoch_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(mined) / config_.blocks_per_s)));
    }
  }
  miner_done_.store(true, std::memory_order_release);
}

void StreamCoordinator::follower_loop() {
  obs::Tracer& tracer = obs::Tracer::global();
  for (;;) {
    // Read the flag *before* polling: a poll that races the miner's last
    // block may come back empty while that block is still unread, but the
    // next iteration's poll (flag already true) re-checks before exiting.
    const bool miner_was_done = miner_done_.load(std::memory_order_acquire);
    const double poll_start_us = tracer.now_us();
    const std::vector<chain::ContractRecord> fresh = follower_.poll();
    const double poll_end_us = tracer.now_us();
    const FollowerStats& stats = follower_.stats();
    metrics_.deployments_seen.set(
        static_cast<double>(stats.deployments_seen));
    metrics_.forwarded.set(static_cast<double>(stats.forwarded));
    metrics_.dedup_hit_rate.set(stats.dedup_hit_rate());
    metrics_.ingest_lag.set(static_cast<double>(stats.last_lag_blocks));
    metrics_.max_ingest_lag.set(static_cast<double>(stats.max_lag_blocks));
    bool downstream_closed = false;
    for (const chain::ContractRecord& record : fresh) {
      // Birth of the causal lane: everything from here to delivery shares
      // this trace id. The ingest work (crawl + fetch + dedup) already
      // happened inside the poll, so the stage slice is drawn over the
      // poll interval — where it actually ran.
      obs::RequestContext ctx = obs::mint_request(tracer);
      obs::stage_slice(ctx, "req.ingest", poll_start_us, poll_end_us, tracer);
      ctx.handoff_us = tracer.now_us();
      if (!addresses_.push({record.address, ctx})) {
        // Generator exited (max_requests) and closed the queue — nothing
        // downstream wants the rest.
        obs::finish_request(ctx, tracer);
        downstream_closed = true;
        break;
      }
    }
    if (downstream_closed) break;
    if (fresh.empty()) {
      if (miner_was_done) break;
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.poll_interval_us));
    }
  }
  addresses_.close();
}

void StreamCoordinator::note_addr_queue_wait(StampedAddress& stamped) {
  obs::Tracer& tracer = obs::Tracer::global();
  const double now_us = tracer.now_us();
  metrics_.addr_queue_wait.record(stamped.ctx.wait_us(now_us));
  obs::stage_slice(stamped.ctx, "req.addr_queue", stamped.ctx.handoff_us,
                   now_us, tracer);
  if (stamped.ctx.valid()) tracer.flow_step(stamped.ctx.trace_id);
}

bool StreamCoordinator::submit_one(const evm::Address& address, bool fresh,
                                   obs::RequestContext ctx) {
  // Counted before admission: the callback may run before try_submit_many
  // returns (a row shed at admission completes on this thread). No one
  // waits on the count while the generator still runs.
  in_flight_ += 1;
  if (!engine_->try_submit_many(
          {&address, 1}, std::move(ctx),
          [this](std::size_t, serve::ScoreResult result) {
            record_outcome(result);
          })) {
    in_flight_ -= 1;  // engine shut down underneath us: never admitted
    return false;
  }
  submitted_ += 1;
  metrics_.submitted.inc();
  if (fresh) {
    metrics_.fresh.inc();
  } else {
    metrics_.requery.inc();
  }
  if (generator_.last_in_burst()) metrics_.burst.inc();
  return true;
}

void StreamCoordinator::generator_loop() {
  bool engine_alive = true;
  while (engine_alive && !drain_requested_.load(std::memory_order_acquire)) {
    if (config_.max_requests != 0 && submitted_ >= config_.max_requests) {
      break;
    }
    generator_.next_arrival();
    if (config_.paced) {
      std::this_thread::sleep_until(
          epoch_ + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           generator_.virtual_time_s())));
    }
    // Span covers handling only (draws + pop + submit), not the pacing
    // sleep — arrival handling cost is the signal, schedule gaps are not.
    obs::ScopedSpan arrival_span("stream.arrival");
    const bool want_requery = generator_.draw_requery() && !known_.empty();
    if (want_requery) {
      engine_alive = submit_one(known_[generator_.draw_index(known_.size())],
                                /*fresh=*/false);
      continue;
    }
    if (std::optional<StampedAddress> fresh = addresses_.try_pop()) {
      note_addr_queue_wait(*fresh);
      known_.push_back(fresh->address);
      engine_alive = submit_one(fresh->address, /*fresh=*/true,
                                std::move(fresh->ctx));
      continue;
    }
    if (!known_.empty()) {
      // Fresh feed momentarily empty — the arrival still lands, as a
      // re-query (real traffic doesn't pause because no one deployed).
      engine_alive = submit_one(known_[generator_.draw_index(known_.size())],
                                /*fresh=*/false);
      continue;
    }
    metrics_.starved.inc();
    std::this_thread::sleep_for(kStarvedBackoff);
  }

  // Flush: every address the follower forwarded gets submitted (unless
  // max_requests cuts the run short) — this is what makes
  // fresh_submits == follower.forwarded a drain invariant.
  while (engine_alive &&
         (config_.max_requests == 0 || submitted_ < config_.max_requests)) {
    std::optional<StampedAddress> fresh = addresses_.pop();
    if (!fresh.has_value()) break;  // follower closed and drained
    note_addr_queue_wait(*fresh);
    known_.push_back(fresh->address);
    engine_alive = submit_one(fresh->address, /*fresh=*/true,
                              std::move(fresh->ctx));
  }

  // Always close the queue on the way out: a blocked follower push
  // unblocks (false).
  addresses_.close();
  // Addresses the run ended without submitting (max_requests hit, engine
  // gone) still hold open trace lanes — close them so the exported trace
  // has no dangling async slices.
  while (std::optional<StampedAddress> leftover = addresses_.try_pop()) {
    obs::finish_request(leftover->ctx);
  }
  generator_done_.store(true, std::memory_order_release);
}

void StreamCoordinator::record_outcome(const serve::ScoreResult& result) {
  switch (result.status) {
    case serve::ScoreStatus::kOk:
    case serve::ScoreStatus::kEmptyCode:
    case serve::ScoreStatus::kDegraded:
      metrics_.completed.inc();
      break;
    case serve::ScoreStatus::kExtractError:
    case serve::ScoreStatus::kModelError:
      metrics_.failed.inc();
      break;
    case serve::ScoreStatus::kShed:
      metrics_.shed.inc();
      break;
  }
  if (result.cache_hit) metrics_.cache_hits.inc();
  // Windowed view: anything that didn't produce a score (failure *or*
  // shed) burns the SLO's error budget.
  if (result.ok()) {
    window_.record_ok(result.latency_us);
  } else {
    window_.record_error(result.latency_us);
  }
  // Last touch of this coordinator: notify under the lock, because drain()
  // may return, and the coordinator go, as soon as it sees zero.
  std::lock_guard<std::mutex> lock(in_flight_mutex_);
  if (--in_flight_ == 0) in_flight_cv_.notify_all();
}

StreamReport StreamCoordinator::report() const {
  StreamReport report;
  report.elapsed_s = elapsed_s_;
  report.miner = chain_->miner_stats();
  report.follower = follower_.stats();
  report.submitted = metrics_.submitted.value();
  report.fresh_submits = metrics_.fresh.value();
  report.requery_submits = metrics_.requery.value();
  report.starved_arrivals = metrics_.starved.value();
  report.burst_arrivals = metrics_.burst.value();
  report.completed = metrics_.completed.value();
  report.failed = metrics_.failed.value();
  report.shed = metrics_.shed.value();
  report.cache_hit_results = metrics_.cache_hits.value();
  report.sustained_rows_per_s =
      report.elapsed_s > 0.0
          ? static_cast<double>(report.completed) / report.elapsed_s
          : 0.0;
  report.ingest_lag_blocks = report.follower.last_lag_blocks;
  report.max_ingest_lag_blocks = report.follower.max_lag_blocks;
  const obs::SloEvaluator::Evaluation eval = slo_.evaluate();
  report.window = eval.window;
  report.error_burn_rate = eval.burn_rate;
  report.shed_pressure = eval.shed_pressure;
  return report;
}

obs::SloEvaluator::Evaluation StreamCoordinator::evaluate_slo() {
  std::lock_guard<std::mutex> lock(slo_mutex_);
  return slo_.export_to(metrics_.registry, "stream");
}

std::string StreamCoordinator::health_json() const {
  const bool started = started_.load(std::memory_order_acquire);
  const bool drained = drained_.load(std::memory_order_acquire);
  const bool draining = drain_requested_.load(std::memory_order_acquire);
  const char* status = !started ? "idle"
                       : drained ? "drained"
                       : draining ? "draining"
                                  : "running";
  std::ostringstream out;
  out << "{\"status\":\"" << status << '"'
      << ",\"finished\":" << (finished() ? "true" : "false")
      << ",\"submitted\":" << metrics_.submitted.value()
      << ",\"completed\":" << metrics_.completed.value()
      << ",\"failed\":" << metrics_.failed.value()
      << ",\"shed\":" << metrics_.shed.value()
      << ",\"queues\":{\"addresses\":{\"size\":" << addresses_.size()
      << ",\"capacity\":" << addresses_.capacity()
      << ",\"closed\":" << (addresses_.closed() ? "true" : "false")
      << "}}}";
  return out.str();
}

}  // namespace phishinghook::stream
