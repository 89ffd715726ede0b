// JSON-RPC binding of the scoring engine: the process's network front door.
//
// RpcFrontend owns a net::JsonRpcServer and registers three methods
// against a borrowed ScoringEngine:
//
//   phook_score      params ["0x<40 hex>"] — one address, one result
//                    object (probability, flagged, status, cache_hit,
//                    cascade stage + model attribution, latency
//                    attribution, trace_id)
//   phook_scoreBatch params [["0x..", "0x..", ...]] — the valid entries
//                    are admitted as one engine wave (try_submit_many);
//                    bad hex entries come back in place as status
//                    "invalid_address" without failing the rest
//   phook_health     no params — engine counters + cache stats + the
//                    net-layer's own request counts, as one JSON object;
//                    when the engine serves a CascadeScorer, a "cascade"
//                    section adds the band config and per-stage traffic
//
// The same port answers GET /metrics (the engine's serve_* registry, then
// the server's net_* registry, with the engine's pull metrics synced per
// scrape) and GET /healthz (the phook_health document).
//
// The handlers run on the server's loop thread and never wait: the engine
// worker that finishes a row replies (phook_score) or fills the row's slot
// of a shared batch state, whose last row replies (phook_scoreBatch). The
// reply thunks write the result objects' JSON text straight into the
// response body back on the loop thread (write_result); only
// phook_health, /healthz and error objects go through a net::JsonValue.
//
// The request's causal identity crosses the boundary: the socket layer
// mints the obs::RequestContext when the HTTP frame completes and the
// handlers pass it into the engine's admission, so one trace id spans
// net.parse -> net.handle (engine queue -> extract -> predict inside).
//
// Shed semantics: engine-level sheds (queue-full, engine deadline)
// surface in the result object's status field as "shed" — a definite
// refusal, which a wallet treats differently from a transport error. An
// engine that is shutting down answers JSON-RPC error -32005.
#pragma once

#include <cstdint>
#include <string>

#include "net/json_rpc_server.hpp"
#include "serve/scoring_engine.hpp"

namespace phishinghook::serve {

/// Appends `result` as one phook_score result object to `out`. Keys come
/// in a fixed order (address, status, probability, flagged, cache_hit,
/// stage, model, latency_us, queue_wait_us, trace_id, error); `model` and
/// `error` are left out when empty. Numbers print as
/// net::JsonValue::number would print them.
void write_result(std::string& out, const ScoreResult& result);

class RpcFrontend {
 public:
  /// Borrows `engine`; it must outlive the frontend.
  RpcFrontend(ScoringEngine& engine, net::RpcConfig config = {});

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  void start(std::uint16_t port);
  void stop();

  std::uint16_t port() const { return server_.port(); }

  /// The underlying server, e.g. to attach more registries to /metrics.
  net::JsonRpcServer& server() { return server_; }
  const net::JsonRpcServer& server() const { return server_; }

 private:
  void score(const net::JsonValue& params,
             const net::JsonRpcServer::CallInfo& call,
             net::JsonRpcServer::Reply reply);
  void score_batch(const net::JsonValue& params,
                   const net::JsonRpcServer::CallInfo& call,
                   net::JsonRpcServer::Reply reply);
  net::JsonValue health();

  ScoringEngine& engine_;
  net::JsonRpcServer server_;
};

}  // namespace phishinghook::serve
