#include "serve/rpc_frontend.hpp"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "serve/cascade.hpp"

namespace phishinghook::serve {

namespace {

using net::JsonValue;
using net::RpcError;
using net::rpc_errors;
using CallInfo = net::JsonRpcServer::CallInfo;
using Reply = net::JsonRpcServer::Reply;

/// One params entry -> Address, or the RpcError the caller should throw.
std::optional<evm::Address> parse_address(const JsonValue& value,
                                          std::string* error) {
  if (!value.is_string()) {
    *error = "address must be a hex string";
    return std::nullopt;
  }
  try {
    return evm::Address::from_hex(value.as_string());
  } catch (const std::exception& e) {
    *error = std::string("bad address: ") + e.what();
    return std::nullopt;
  }
}

/// One invalid phook_scoreBatch entry's result object, as JSON text.
std::string invalid_address_json(const JsonValue& entry,
                                 const std::string& why) {
  std::string out = "{\"address\":";
  if (entry.is_string()) {
    entry.dump_to(out);
  } else {
    out += "null";
  }
  out += ",\"status\":\"invalid_address\",\"error\":\"";
  net::json_escape_to(out, why);
  out += "\"}";
  return out;
}

}  // namespace

void write_result(std::string& out, const ScoreResult& result) {
  out += "{\"address\":\"0x";
  common::hex_append(out, result.address.bytes());
  out += "\",\"status\":\"";
  net::json_escape_to(out, to_string(result.status));
  out += "\",\"probability\":";
  net::json_number_to(out, result.probability);
  out += result.flagged ? ",\"flagged\":true" : ",\"flagged\":false";
  out += result.cache_hit ? ",\"cache_hit\":true" : ",\"cache_hit\":false";
  // Cascade attribution: which stage answered and which model sits behind
  // it. `model` is empty for unscored outcomes (errors, shed).
  out += ",\"stage\":";
  net::json_number_to(out, static_cast<double>(result.stage));
  if (!result.model.empty()) {
    out += ",\"model\":\"";
    net::json_escape_to(out, result.model);
    out += '"';
  }
  out += ",\"latency_us\":";
  net::json_number_to(out, result.latency_us);
  out += ",\"queue_wait_us\":";
  net::json_number_to(out, result.queue_wait_us);
  // A JSON number is a double here, so ids above 2^53 lose low bits.
  out += ",\"trace_id\":";
  net::json_number_to(out, static_cast<double>(result.trace_id));
  if (!result.error.empty()) {
    out += ",\"error\":\"";
    net::json_escape_to(out, result.error);
    out += '"';
  }
  out += '}';
}

RpcFrontend::RpcFrontend(ScoringEngine& engine, net::RpcConfig config)
    : engine_(engine), server_(config) {
  server_.register_method("phook_score",
                          std::bind_front(&RpcFrontend::score, this));
  server_.register_method("phook_scoreBatch",
                          std::bind_front(&RpcFrontend::score_batch, this));
  server_.register_method(
      "phook_health", [this](const JsonValue&, const CallInfo&, Reply reply) {
        reply([this](std::string& out) { health().dump_to(out); });
      });
  server_.add_registry(engine_.prometheus_registry());
  server_.add_registry(server_.metrics_registry());
  server_.add_pre_scrape_hook([this] { engine_.export_pull_metrics(); });
  server_.set_health([this] { return health().dump(); });
}

void RpcFrontend::start(std::uint16_t port) { server_.start(port); }

void RpcFrontend::stop() { server_.stop(); }

void RpcFrontend::score(const JsonValue& params, const CallInfo& call,
                        Reply reply) {
  if (!params.is_array() || params.as_array().size() != 1) {
    throw RpcError(rpc_errors::kInvalidParams,
                   "expected params [\"0x<40 hex>\"]");
  }
  std::string why;
  const std::optional<evm::Address> address =
      parse_address(params.as_array()[0], &why);
  if (!address) throw RpcError(rpc_errors::kInvalidParams, why);

  // Continue the socket request's causal lane into the engine: its queue
  // wait and extract/predict spans join the same trace id the net layer
  // opened at frame completion.
  if (!engine_.try_submit_many(
          {&*address, 1}, call.ctx,
          [reply = std::move(reply)](std::size_t, ScoreResult result) {
            reply([result = std::move(result)](std::string& out) {
              write_result(out, result);
            });
          })) {
    throw RpcError(rpc_errors::kShed, "scoring engine is shutting down");
  }
}

void RpcFrontend::score_batch(const JsonValue& params, const CallInfo& call,
                              Reply reply) {
  if (!params.is_array() || params.as_array().size() != 1 ||
      !params.as_array()[0].is_array()) {
    throw RpcError(rpc_errors::kInvalidParams,
                   "expected params [[\"0x..\", ...]]");
  }
  const JsonValue::Array& entries = params.as_array()[0].as_array();

  // Each row fills its own slot on the worker that finished it, and the
  // last one to land replies. Invalid entries are encoded at admission and
  // answered in place (an empty entry marks a scored row), so the response
  // keeps request order.
  struct Batch {
    std::vector<std::string> invalid;
    std::vector<ScoreResult> scored;
    std::atomic<std::size_t> pending{1};  ///< rows out, plus the admission
    std::optional<Reply> reply;
  };
  auto batch = std::make_shared<Batch>();
  std::vector<evm::Address> addresses;
  for (const JsonValue& entry : entries) {
    std::string why;
    const std::optional<evm::Address> address = parse_address(entry, &why);
    if (address) addresses.push_back(*address);
    batch->invalid.push_back(address ? std::string()
                                     : invalid_address_json(entry, why));
  }
  batch->scored.resize(addresses.size());
  batch->pending += addresses.size();
  batch->reply = std::move(reply);

  const auto land = [](const std::shared_ptr<Batch>& state) {
    if (--state->pending != 0) return;
    // Take the reply out before calling it: the thunk owns the state, and a
    // state that kept the reply would own its own frame.
    const Reply last = std::move(*state->reply);
    state->reply.reset();
    last([state](std::string& out) {
      out += '[';
      std::size_t next = 0;
      for (std::size_t i = 0; i < state->invalid.size(); ++i) {
        if (i > 0) out += ',';
        if (state->invalid[i].empty()) {
          write_result(out, state->scored[next++]);
        } else {
          out += state->invalid[i];
        }
      }
      out += ']';
    });
  };
  if (!engine_.try_submit_many(
          addresses, call.ctx,
          [batch, land](std::size_t index, ScoreResult result) {
            batch->scored[index] = std::move(result);
            land(batch);
          })) {
    throw RpcError(rpc_errors::kShed, "scoring engine is shutting down");
  }
  land(batch);  // admission done; a list with no valid entry replies here
}

JsonValue RpcFrontend::health() {
  const ServiceMetrics& m = engine_.metrics();
  const CacheStats cache = engine_.cache_stats();

  JsonValue engine;
  engine.set("requests_submitted",
             JsonValue::number(
                 static_cast<double>(m.requests_submitted.value())));
  engine.set("requests_completed",
             JsonValue::number(
                 static_cast<double>(m.requests_completed.value())));
  engine.set("requests_failed",
             JsonValue::number(static_cast<double>(m.requests_failed.value())));
  engine.set("requests_shed",
             JsonValue::number(static_cast<double>(m.requests_shed.value())));
  engine.set("requests_degraded",
             JsonValue::number(
                 static_cast<double>(m.requests_degraded.value())));
  engine.set("queue_depth", JsonValue::number(m.queue_depth.value()));

  JsonValue cache_obj;
  cache_obj.set("hits",
                JsonValue::number(static_cast<double>(cache.hits)));
  cache_obj.set("misses",
                JsonValue::number(static_cast<double>(cache.misses)));
  cache_obj.set("entries",
                JsonValue::number(static_cast<double>(cache.entries)));
  cache_obj.set("hit_rate", JsonValue::number(cache.hit_rate()));

  JsonValue network;
  network.set("requests_received",
              JsonValue::number(
                  static_cast<double>(server_.requests_received())));
  network.set("connections_active",
              JsonValue::number(
                  static_cast<double>(server_.connections())));

  JsonValue out;
  out.set("status", JsonValue::string("ok"));
  out.set("engine", std::move(engine));
  out.set("cache", std::move(cache_obj));
  out.set("net", std::move(network));
  out.set("model", JsonValue::string(engine_.scorer().name()));

  // When the engine serves a cascade, describe its band and per-stage
  // traffic so operators can see where rows stop without scraping metrics.
  if (const auto* cascade =
          dynamic_cast<const CascadeScorer*>(&engine_.scorer())) {
    const CascadeConfig& band = cascade->config();
    const CascadeStats stats = cascade->stats();
    JsonValue cascade_obj;
    cascade_obj.set("enabled", JsonValue::boolean(band.enabled()));
    cascade_obj.set("band_lo", JsonValue::number(band.lo));
    cascade_obj.set("band_hi", JsonValue::number(band.hi));
    cascade_obj.set("escalation_rate",
                    JsonValue::number(stats.escalation_rate()));
    cascade_obj.set("degraded_rows",
                    JsonValue::number(
                        static_cast<double>(stats.degraded_total)));
    JsonValue stages = JsonValue::array();
    for (std::size_t s = 0; s < stats.stages.size(); ++s) {
      const CascadeStageStats& stage = stats.stages[s];
      JsonValue stage_obj;
      stage_obj.set("stage", JsonValue::number(static_cast<double>(s)));
      stage_obj.set("model", JsonValue::string(stage.model));
      stage_obj.set("rows",
                    JsonValue::number(static_cast<double>(stage.rows)));
      stage_obj.set("escalations",
                    JsonValue::number(
                        static_cast<double>(stage.escalations)));
      stage_obj.set("faults",
                    JsonValue::number(static_cast<double>(stage.faults)));
      stages.push_back(std::move(stage_obj));
    }
    cascade_obj.set("stages", std::move(stages));
    out.set("cascade", std::move(cascade_obj));
  }
  return out;
}

}  // namespace phishinghook::serve
