// The process's one HTTP server, on the net-layer event loop: JSON-RPC 2.0
// over POST, plus GET/HEAD /metrics and /healthz for the operator.
//
// Scoring goes from "call the engine in-process" to "POST a JSON-RPC frame
// at 127.0.0.1:<port>", the same shape as a real Ethereum node's RPC
// endpoint (and therefore curl-able), and the same port answers scrapes:
//
//   curl -s -X POST http://127.0.0.1:9545/ -d '{"jsonrpc":"2.0","id":1,
//       "method":"phook_score","params":["0x1234...40 hex..."]}'
//   curl -s http://127.0.0.1:9545/metrics
//
// One class owns the whole stack: the loopback listener (port 0 =
// ephemeral), the table of buffered connections, the idle sweep, and the
// HTTP/JSON-RPC protocol on top. It runs one EventLoop on its own thread.
// Per connection it keeps a read buffer that grows as bytes arrive and a
// write buffer drained opportunistically: a send flushes what the kernel
// takes now (send_some retries EINTR) and arms EPOLLOUT for the rest, so
// a peer that reads slowly costs memory, never a blocked thread.
// Connection state lives on the loop thread only and needs no lock; work
// finished on another thread (an engine worker's reply) re-enters through
// a posted task that drops silently when its connection died meanwhile.
// Connection ids are never reused within a server, which makes that race
// benign. The loop keeps net_connections_{active,accepted,rejected}
// current where it accepts, refuses and closes connections.
//
// Every request takes one framing path: parse the head, take
// Content-Length (required for POST, 0 when a GET/HEAD omits it), apply
// the keep-alive rules, then route on the method:
//
//   POST       JSON-RPC, whatever the target
//   GET/HEAD   /metrics -> Prometheus text over the attached registries,
//              after the pre-scrape hooks; /healthz -> the health
//              function's JSON; any other path -> 404. A query string is
//              ignored; HEAD gets the GET headers and no body.
//   otherwise  405 with "Allow: GET, HEAD, POST"
//
// Everything protocol-side runs on the loop thread: parse the HTTP frame
// and its JSON-RPC document, mint the request's causal identity
// (obs::RequestContext), call the method handler. A handler never blocks:
// it throws RpcError, or calls its Reply exactly once — now or later, from
// any thread — with a thunk that writes the result's JSON text. The last
// reply of a frame posts one task onto the loop, which writes the
// envelopes (and a batch's brackets) into one body string, lets each
// thunk append its result in request order, and sends the body; no
// worker ever encodes JSON and no result becomes a JsonValue tree.
// A scrape is answered in place on the loop thread and never becomes a
// frame.
//
// This layer sheds nothing itself: a connection has one frame in flight,
// max_connections caps the connections (an accept beyond it is closed at
// once and counted as rejected), and the engine's max_queue and deadline
// shed scoring work as results whose status says "shed". Connections idle
// past idle_timeout_ms are reaped by the loop tick, which is also what
// bounds stop() when a client stalls mid-request. Malformed requests and
// per-stage latency land in the net_* registry.
//
// Transport refusals: unknown method (405), POST without Content-Length
// (411), bodies over max_body_bytes (413) and heads over 16 KiB (431);
// each carries -32600 (Invalid Request), never the retryable -32005.
// HTTP/1.1 keep-alive is honored. JSON-RPC batches work, including mixed
// valid/invalid entries and notification elision, capped at max_batch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"

namespace phishinghook::net {

/// JSON-RPC 2.0 error codes used by the server core. Handlers may throw
/// RpcError with these or their own application codes.
struct rpc_errors {
  static constexpr int kParseError = -32700;
  static constexpr int kInvalidRequest = -32600;
  static constexpr int kMethodNotFound = -32601;
  static constexpr int kInvalidParams = -32602;
  static constexpr int kInternalError = -32603;
  /// The scoring engine is shutting down and admits no more work; the
  /// only meaning of this code.
  static constexpr int kShed = -32005;
};

/// Thrown by method handlers to produce a JSON-RPC error response.
class RpcError : public std::runtime_error {
 public:
  RpcError(int code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  int code() const { return code_; }

 private:
  int code_;
};

struct RpcConfig {
  std::size_t max_connections = 128;
  /// HTTP body cap; Content-Length above this is refused with 413.
  std::size_t max_body_bytes = 1 << 20;
  /// Entries allowed in one JSON-RPC batch array.
  std::size_t max_batch = 64;
  /// Connections with no byte movement for this long are closed by the
  /// loop tick. 0 disables the sweep (tests that stall on purpose).
  std::uint64_t idle_timeout_ms = 30000;
};

class JsonRpcServer {
  struct Frame;

 public:
  /// Runs before every /metrics body is built, on the loop thread.
  using Hook = std::function<void()>;
  /// Builds the /healthz body (must already be JSON).
  using HealthFn = std::function<std::string()>;

  /// Everything a handler may want beyond its params: the request's
  /// causal identity (pass it into ScoringEngine admission to keep the
  /// socket request one connected trace lane).
  struct CallInfo {
    obs::RequestContext ctx;
  };

  /// Appends one call's JSON-RPC result, as JSON text, to the response
  /// body `out`; runs on the loop thread. It may throw (RpcError for a
  /// protocol-visible failure), even after appending: the server then cuts
  /// the body back to where this call began and writes the error object
  /// in its place.
  using ResultThunk = std::function<void(std::string& out)>;

  /// Completes one call: call exactly once, from any thread, then drop it
  /// (stop() waits until every copy is gone).
  class Reply {
   public:
    void operator()(ResultThunk result) const;

   private:
    friend class JsonRpcServer;
    Reply(std::shared_ptr<Frame> frame, std::size_t call)
        : frame_(std::move(frame)), call_(call) {}
    std::shared_ptr<Frame> frame_;
    std::size_t call_ = 0;
  };

  /// Runs on the loop thread and must not block: throw RpcError, or call
  /// `reply` exactly once (now or later, from any thread).
  using Handler = std::function<void(const JsonValue& params,
                                     const CallInfo& call, Reply reply)>;

  explicit JsonRpcServer(RpcConfig config = {});
  ~JsonRpcServer();

  JsonRpcServer(const JsonRpcServer&) = delete;
  JsonRpcServer& operator=(const JsonRpcServer&) = delete;

  /// Registers `method`; call before start(). Re-registering replaces.
  void register_method(std::string method, Handler handler);

  /// Attaches a registry; /metrics concatenates the expositions in
  /// attachment order. Safe at any time, as are the two calls below.
  void add_registry(const obs::MetricsRegistry& registry);

  void add_pre_scrape_hook(Hook hook);

  /// Supplies the /healthz body. Unset = {"status":"ok"}.
  void set_health(HealthFn health);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and starts the loop
  /// thread. Throws StateError if already started or the bind fails.
  void start(std::uint16_t port);

  /// Stops reading new frames, waits until none is in flight, then closes
  /// every connection and the listener, stops the loop and joins it.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Live connections and connections accepted so far, read from the
  /// net_connections_{active,accepted} gauges the loop keeps.
  std::size_t connections() const {
    return static_cast<std::size_t>(connections_active_.value());
  }
  std::uint64_t connections_accepted() const {
    return static_cast<std::uint64_t>(connections_accepted_.value());
  }

  /// The server's net_* metrics (counters, gauges, stage histograms). Not
  /// served until attached with add_registry. The non-const overload lets
  /// benches re-register a histogram handle to read it.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// Complete requests received: JSON-RPC frames and scrapes, not refusals.
  std::uint64_t requests_received() const {
    return requests_total_.value();
  }

  /// Live frames: parsed, with a reply outstanding or held or the response
  /// not yet queued. Zero once traffic settles.
  std::size_t frames_in_flight() const;

 private:
  /// One accepted socket. Loop thread only.
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::string in;            ///< bytes received, not yet consumed
    std::string out;           ///< bytes queued, not yet sent
    std::size_t out_offset = 0;
    bool close_after_flush = false;
    /// Interest mask registered with the loop (EPOLLIN, plus EPOLLOUT
    /// while bytes wait); kept so an unchanged mask costs no epoll_ctl.
    std::uint32_t events = 0;
    std::chrono::steady_clock::time_point last_activity;
    bool busy = false;         ///< frame in flight or closing; don't read ahead
    double first_byte_us = 0;  ///< tracer clock at this request's first byte
  };

  // Connection layer (loop thread unless noted).
  void accept_ready();
  void connection_event(std::uint64_t id, std::uint32_t events);
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  /// Sends as much of conn.out as the kernel takes now.
  void flush(Connection& conn);
  void update_interest(Connection& conn);
  /// Runs `fn(conn)` on the loop thread if connection `id` is still alive;
  /// drops it otherwise. Thread-safe.
  void with_connection(std::uint64_t id, std::function<void(Connection&)> fn);
  void destroy_connection(std::uint64_t id);
  void sweep_idle();

  /// Serves the buffered requests until one is incomplete or in flight.
  void process_input(Connection& conn);
  /// Takes one request off conn.in and answers or dispatches it; false
  /// when there is none to take (incomplete, or refused and closing).
  bool next_request(Connection& conn);
  /// Answers GET/HEAD `target` in place. Loop thread.
  void respond_scrape(Connection& conn, std::string_view target,
                      bool head_only, bool keep_alive);
  /// Counts a malformed request and refuses it with `status`, closing.
  void refuse(Connection& conn, int status, const char* reason,
              const std::string& why);
  /// Sends an HTTP response and either re-arms (keep-alive) or finishes
  /// the connection. Loop thread.
  void respond_http(Connection& conn, int status, const char* reason,
                    std::string_view content_type, std::string_view body,
                    bool keep_alive, bool head_only = false);
  /// Decodes a complete frame's JSON-RPC document, calls its handlers.
  void dispatch(const std::shared_ptr<Frame>& frame, std::string_view body);
  /// Validates one request object and calls its handler.
  void call_method(const std::shared_ptr<Frame>& frame, std::size_t index,
                   const JsonValue& request);
  /// Drops one outstanding reply; the last posts the response.
  void release(const std::shared_ptr<Frame>& frame);
  /// Writes the frame's body (envelopes, thunk results, errors) and sends
  /// it. Loop thread.
  void respond_frame(Connection& conn, Frame& frame);

  RpcConfig config_;
  std::unordered_map<std::string, Handler> methods_;

  mutable std::mutex frames_mutex_;
  std::condition_variable frames_cv_;
  std::size_t frames_in_flight_ = 0;  ///< guarded by frames_mutex_
  bool stopping_ = false;             ///< guarded by frames_mutex_

  std::mutex scrape_mutex_;  ///< guards the three below
  std::vector<const obs::MetricsRegistry*> scraped_;
  std::vector<Hook> hooks_;
  HealthFn health_;

  obs::MetricsRegistry registry_;
  obs::Counter requests_total_ = registry_.counter("net_requests_total");
  obs::Counter responses_total_ = registry_.counter("net_responses_total");
  obs::Counter malformed_ = registry_.counter("net_requests_malformed");
  obs::Counter batch_calls_ = registry_.counter("net_batch_calls_total");
  obs::Gauge connections_active_ = registry_.gauge("net_connections_active");
  obs::Gauge connections_accepted_ =
      registry_.gauge("net_connections_accepted");
  obs::Gauge connections_rejected_ =
      registry_.gauge("net_connections_rejected");
  obs::LatencyHistogram& parse_us_ =
      registry_.histogram("net_stage_service_us", obs::label("stage", "parse"));
  obs::LatencyHistogram& handle_us_ = registry_.histogram(
      "net_stage_service_us", obs::label("stage", "handle"));
  obs::LatencyHistogram& encode_us_ = registry_.histogram(
      "net_stage_service_us", obs::label("stage", "encode"));
  obs::LatencyHistogram& request_total_us_ =
      registry_.histogram("net_request_total_us");

  // Declared last: queued tasks may hold frames, which touch the members
  // above when the loop discards them.
  EventLoop loop_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unordered_map<std::uint64_t, Connection> conns_;  ///< loop thread
  std::uint64_t next_id_ = 1;                            ///< loop thread
};

}  // namespace phishinghook::net
