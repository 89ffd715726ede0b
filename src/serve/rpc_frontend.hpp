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
//                    are admitted as one engine wave (try_submit_many)
//                    before any wait; bad hex entries come back in place as
//                    status "invalid_address" without failing the rest
//   phook_health     no params — engine counters + cache stats + the
//                    net-layer's own request counts, as one JSON object;
//                    when the engine serves a CascadeScorer, a "cascade"
//                    section adds the band config and per-stage traffic
//
// The request's causal identity crosses the boundary: the socket layer
// mints the obs::RequestContext when the HTTP frame completes, and the
// handlers pass it into the engine's admission, so one trace id spans
// net.parse -> net.dispatch -> engine queue -> extract -> predict in the
// exported Perfetto trace.
//
// Shed semantics: a full dispatch queue or an expired network deadline
// never reaches these handlers (the server answers 503/-32005 itself);
// engine-level sheds (queue-full, engine deadline) surface in the result
// object's status field as "shed", because the request *was* answered —
// with a definite refusal, which a wallet treats differently from a
// transport error.
#pragma once

#include <cstdint>
#include <string>

#include "net/json_rpc_server.hpp"
#include "serve/scoring_engine.hpp"

namespace phishinghook::serve {

class RpcFrontend {
 public:
  /// Borrows `engine`; it must outlive the frontend.
  RpcFrontend(ScoringEngine& engine, net::RpcConfig config = {});

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  void start(std::uint16_t port);
  void stop();

  std::uint16_t port() const { return server_.port(); }

  /// The underlying server, e.g. to attach its net_* registry to a
  /// ScrapeServer next to the engine's serve_* registry.
  net::JsonRpcServer& server() { return server_; }
  const net::JsonRpcServer& server() const { return server_; }

 private:
  net::JsonValue score(const net::JsonValue& params,
                       const net::JsonRpcServer::CallInfo& call);
  net::JsonValue score_batch(const net::JsonValue& params,
                             const net::JsonRpcServer::CallInfo& call);
  net::JsonValue health(const net::JsonValue& params,
                        const net::JsonRpcServer::CallInfo& call);

  ScoringEngine& engine_;
  net::JsonRpcServer server_;
};

}  // namespace phishinghook::serve
