#include "net/json_rpc_server.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace phishinghook::net {

namespace {

constexpr std::size_t kMaxHeadBytes = 16384;

constexpr std::string_view kJson = "application/json";
constexpr std::string_view kText = "text/plain";
constexpr std::string_view kPrometheus =
    "text/plain; version=0.0.4; charset=utf-8";

/// Case-insensitive header lookup inside [head_begin, head_end); returns
/// the trimmed value or empty.
std::string find_header(const std::string& in, std::size_t head_end,
                        std::string_view name) {
  std::size_t pos = in.find("\r\n");
  while (pos != std::string::npos && pos < head_end) {
    const std::size_t line_start = pos + 2;
    const std::size_t line_end = in.find("\r\n", line_start);
    if (line_end == std::string::npos || line_start >= head_end) break;
    const std::size_t colon = in.find(':', line_start);
    if (colon != std::string::npos && colon < line_end &&
        colon - line_start == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(in[line_start + i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t value_start = colon + 1;
        while (value_start < line_end &&
               (in[value_start] == ' ' || in[value_start] == '\t')) {
          ++value_start;
        }
        std::size_t value_end = line_end;
        while (value_end > value_start &&
               (in[value_end - 1] == ' ' || in[value_end - 1] == '\t')) {
          --value_end;
        }
        return in.substr(value_start, value_end - value_start);
      }
    }
    pos = line_end;
  }
  return {};
}

std::string ascii_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

JsonValue make_error_value(int code, const std::string& message) {
  JsonValue error;
  error.set("code", JsonValue::number(code));
  error.set("message", JsonValue::string(message));
  return error;
}

JsonValue make_error_response(const JsonValue& id, int code,
                              const std::string& message) {
  JsonValue response;
  response.set("jsonrpc", JsonValue::string("2.0"));
  response.set("id", id);
  response.set("error", make_error_value(code, message));
  return response;
}

}  // namespace

/// One HTTP frame from dispatch until its response is queued, shared by
/// the loop and its Replies; its destruction takes it out of flight.
struct JsonRpcServer::Frame {
  /// One request object of the frame, in request order.
  struct Call {
    JsonValue id;
    bool notification = false;
    std::optional<JsonValue> response;  ///< answered in place (an error)
    ResultThunk result;                 ///< set by the call's Reply
  };

  Frame(JsonRpcServer& owner, std::uint64_t conn, bool keep)
      : server(&owner), conn_id(conn), keep_alive(keep) {}
  ~Frame() {
    // Notify under the lock: stop() may return, and the server go, as soon
    // as it sees zero.
    std::lock_guard<std::mutex> lock(server->frames_mutex_);
    if (--server->frames_in_flight_ == 0) server->frames_cv_.notify_all();
  }

  JsonRpcServer* server;
  std::uint64_t conn_id;
  bool keep_alive;
  bool batch = false;  ///< answered with an array
  obs::RequestContext ctx;
  std::vector<Call> calls;  ///< sized before any handler runs
  /// Outstanding replies, plus a guard the loop holds while dispatching.
  std::atomic<std::size_t> pending{1};
};

void JsonRpcServer::Reply::operator()(ResultThunk result) const {
  frame_->calls[call_].result = std::move(result);
  frame_->server->release(frame_);
}

JsonRpcServer::JsonRpcServer(RpcConfig config)
    : SocketServer(SocketServerConfig{
          config.max_connections,
          /*max_in_bytes=*/config.max_body_bytes + kMaxHeadBytes,
          config.idle_timeout_ms,
      }),
      config_(config) {
  registry_.set_help("net_requests_total",
                     "HTTP requests received (JSON-RPC frames and scrapes)");
  registry_.set_help("net_requests_malformed",
                     "HTTP or JSON-RPC protocol violations answered with "
                     "an error");
  registry_.set_help("net_stage_service_us",
                     "Service time per network stage (parse, handle, "
                     "encode)");
  registry_.set_help("net_request_total_us",
                     "Frame completion to last reply, JSON-RPC layer");
}

JsonRpcServer::~JsonRpcServer() { stop(); }

void JsonRpcServer::register_method(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
}

void JsonRpcServer::add_registry(const obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  scraped_.push_back(&registry);
}

void JsonRpcServer::add_pre_scrape_hook(Hook hook) {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  hooks_.push_back(std::move(hook));
}

void JsonRpcServer::set_health(HealthFn health) {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  health_ = std::move(health);
}

void JsonRpcServer::start(std::uint16_t port) {
  SocketServer::start(port);
  std::lock_guard<std::mutex> lock(frames_mutex_);
  stopping_ = false;
}

void JsonRpcServer::stop() {
  {
    // In-flight frames finish while the loop still runs, so their
    // responses reach their sockets; new frames stay unread.
    std::unique_lock<std::mutex> lock(frames_mutex_);
    stopping_ = true;
    frames_cv_.wait(lock, [this] { return frames_in_flight_ == 0; });
  }
  SocketServer::stop();
}

std::size_t JsonRpcServer::frames_in_flight() const {
  std::lock_guard<std::mutex> lock(frames_mutex_);
  return frames_in_flight_;
}

void JsonRpcServer::on_open(Connection& conn) {
  conn.user = std::make_shared<HttpState>();
}

void JsonRpcServer::on_data(Connection& conn) { process_input(conn); }

void JsonRpcServer::on_overflow(Connection& conn) {
  conn.in.clear();
  refuse(conn, 413, "Payload Too Large", "request body exceeds server limit");
}

void JsonRpcServer::process_input(Connection& conn) {
  auto* state = static_cast<HttpState*>(conn.user.get());
  // A scrape is answered in place, so one read may carry several
  // pipelined requests: loop rather than recurse once per request.
  while (state != nullptr && !state->busy && next_request(conn, *state)) {
  }
}

bool JsonRpcServer::next_request(Connection& conn, HttpState& state) {
  if (conn.in.empty()) return false;
  obs::Tracer& tracer = obs::Tracer::global();
  if (state.first_byte_us == 0) state.first_byte_us = tracer.now_us();

  const std::size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (conn.in.size() > kMaxHeadBytes) {
      refuse(conn, 431, "Request Header Fields Too Large",
             "request head too large");
    }
    return false;  // head still arriving
  }

  // Request line: METHOD SP target SP version.
  const std::size_t line_end = conn.in.find("\r\n");
  const std::size_t method_end = conn.in.find(' ');
  const std::size_t target_end =
      method_end < line_end ? conn.in.find(' ', method_end + 1)
                            : std::string::npos;
  if (target_end == std::string::npos || target_end > line_end) {
    refuse(conn, 400, "Bad Request", "malformed request line");
    return false;
  }
  const std::string_view method =
      std::string_view(conn.in).substr(0, method_end);
  const bool post = method == "POST";
  if (!post && method != "GET" && method != "HEAD") {
    refuse(conn, 405, "Method Not Allowed", "method not allowed");
    return false;
  }
  const bool http10 = line_end >= 8 &&
                      conn.in.compare(line_end - 8, 8, "HTTP/1.0") == 0;
  const std::string connection_header =
      ascii_lower(find_header(conn.in, head_end, "connection"));
  const bool keep_alive = http10 ? connection_header == "keep-alive"
                                 : connection_header != "close";

  const std::string length_header =
      find_header(conn.in, head_end, "content-length");
  if (length_header.empty() && post) {
    refuse(conn, 411, "Length Required", "Content-Length required");
    return false;
  }
  std::size_t content_length = 0;
  for (const char c : length_header) {
    if (c < '0' || c > '9') {
      refuse(conn, 400, "Bad Request", "bad Content-Length");
      return false;
    }
    content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
    if (content_length > config_.max_body_bytes) break;
  }
  if (content_length > config_.max_body_bytes) {
    refuse(conn, 413, "Payload Too Large", "request body exceeds server limit");
    return false;
  }
  const std::size_t frame_size = head_end + 4 + content_length;
  if (conn.in.size() < frame_size) return false;  // body still arriving

  if (!post) {
    // A scrape is not a JSON-RPC frame: no causal identity, no stage
    // timings, nothing in flight.
    requests_total_.inc();
    state.first_byte_us = 0;
    const std::string target =
        conn.in.substr(method_end + 1, target_end - method_end - 1);
    const bool head_only = method == "HEAD";
    conn.in.erase(0, frame_size);
    respond_scrape(conn, target, head_only, keep_alive);
    return true;
  }

  {
    std::lock_guard<std::mutex> lock(frames_mutex_);
    if (stopping_) return false;  // stop() closes the connection, frame unread
    ++frames_in_flight_;
  }
  auto frame = std::make_shared<Frame>(*this, conn.id, keep_alive);
  state.busy = true;

  // The frame is complete: give the request its causal identity and
  // attribute the receive span (first byte -> frame complete) as the
  // "parse" stage on its lane.
  frame->ctx = obs::mint_request(tracer);
  const double now = tracer.now_us();
  parse_us_.record(now - state.first_byte_us);
  obs::stage_slice(frame->ctx, "net.parse", state.first_byte_us, now,
                   tracer);
  frame->ctx.handoff_us = now;
  state.first_byte_us = 0;
  requests_total_.inc();

  // Handlers never touch the connection, so the body is parsed in place.
  dispatch(frame, std::string_view(conn.in).substr(head_end + 4,
                                                   content_length));
  conn.in.erase(0, frame_size);
  return true;
}

void JsonRpcServer::respond_scrape(Connection& conn, std::string_view target,
                                   bool head_only, bool keep_alive) {
  const std::string_view path = target.substr(0, target.find('?'));
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  if (path == "/metrics") {
    for (const Hook& hook : hooks_) hook();
    active_connections_.set(static_cast<double>(connections()));
    accepted_gauge_.set(static_cast<double>(connections_accepted()));
    rejected_gauge_.set(static_cast<double>(connections_rejected()));
    std::ostringstream body;
    for (const obs::MetricsRegistry* registry : scraped_) {
      registry->write_prometheus(body);
    }
    respond_http(conn, 200, "OK", kPrometheus, body.str(), keep_alive,
                 head_only);
  } else if (path == "/healthz") {
    respond_http(conn, 200, "OK", kJson,
                 health_ ? health_() : "{\"status\":\"ok\"}", keep_alive,
                 head_only);
  } else {
    respond_http(conn, 404, "Not Found", kText,
                 "unknown path (try /metrics, /healthz)\n", keep_alive,
                 head_only);
  }
}

void JsonRpcServer::refuse(Connection& conn, int status, const char* reason,
                           const std::string& why) {
  // The request can never succeed as sent, so it is an Invalid Request,
  // not a retryable shed.
  malformed_.inc();
  respond_http(conn, status, reason, kJson,
               make_error_response(JsonValue::null(),
                                   rpc_errors::kInvalidRequest, why)
                   .dump(),
               false);
}

void JsonRpcServer::respond_http(Connection& conn, int status,
                                 const char* reason,
                                 std::string_view content_type,
                                 std::string_view body, bool keep_alive,
                                 bool head_only) {
  // The head goes straight into the write buffer; send_data appends the
  // body behind it and flushes both at once.
  std::string& out = conn.out;
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  if (status == 405) out += "Allow: GET, HEAD, POST\r\n";
  if (status != 204) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  responses_total_.inc();
  // HEAD: the headers describe the body a GET would return; no body.
  send_data(conn, head_only ? std::string_view() : body);
  auto* state = static_cast<HttpState*>(conn.user.get());
  if (state != nullptr) state->busy = !keep_alive;
  if (!keep_alive) finish(conn);
}

void JsonRpcServer::dispatch(const std::shared_ptr<Frame>& frame,
                             std::string_view body) {
  const auto refuse = [&](int code, const std::string& message) {
    malformed_.inc();
    frame->calls.resize(1);
    frame->calls[0].response =
        make_error_response(JsonValue::null(), code, message);
  };
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::parse(body, &parse_error);
  if (!doc) {
    refuse(rpc_errors::kParseError, "parse error: " + parse_error);
  } else if (!doc->is_array()) {
    frame->calls.resize(1);
    call_method(frame, 0, *doc);
  } else {
    batch_calls_.inc();
    const JsonValue::Array& batch = doc->as_array();
    if (batch.empty()) {
      refuse(rpc_errors::kInvalidRequest, "empty batch");
    } else if (batch.size() > config_.max_batch) {
      refuse(rpc_errors::kInvalidRequest,
             "batch larger than " + std::to_string(config_.max_batch));
    } else {
      frame->batch = true;
      frame->calls.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        call_method(frame, i, batch[i]);
      }
    }
  }
  release(frame);  // the dispatch guard
}

void JsonRpcServer::call_method(const std::shared_ptr<Frame>& frame,
                                std::size_t index, const JsonValue& request) {
  Frame::Call& call = frame->calls[index];
  // Notifications get no answer, errors included.
  const auto fail = [&](int code, const std::string& message, bool malformed) {
    if (malformed) malformed_.inc();
    if (!call.notification) {
      call.response = make_error_response(call.id, code, message);
    }
  };
  if (!request.is_object()) {
    return fail(rpc_errors::kInvalidRequest, "request must be an object",
                true);
  }
  const JsonValue* id_member = request.find("id");
  call.notification = id_member == nullptr;
  if (!call.notification) call.id = *id_member;
  const JsonValue* version = request.find("jsonrpc");
  if (version == nullptr || !version->is_string() ||
      version->as_string() != "2.0") {
    return fail(rpc_errors::kInvalidRequest, "jsonrpc must be \"2.0\"", true);
  }
  const JsonValue* method = request.find("method");
  if (method == nullptr || !method->is_string()) {
    return fail(rpc_errors::kInvalidRequest, "method must be a string", true);
  }
  const auto handler = methods_.find(method->as_string());
  if (handler == methods_.end()) {
    return fail(rpc_errors::kMethodNotFound,
                "method not found: " + method->as_string(), false);
  }
  static const JsonValue kNoParams;
  const JsonValue* params_member = request.find("params");
  const JsonValue& params =
      params_member == nullptr ? kNoParams : *params_member;
  if (!params.is_null() && !params.is_array() && !params.is_object()) {
    return fail(rpc_errors::kInvalidParams, "params must be array or object",
                true);
  }
  frame->pending.fetch_add(1, std::memory_order_relaxed);
  try {
    handler->second(params, CallInfo{frame->ctx}, Reply(frame, index));
  } catch (const RpcError& error) {
    fail(error.code(), error.what(), false);
    release(frame);
  } catch (const std::exception& error) {
    fail(rpc_errors::kInternalError,
         std::string("internal error: ") + error.what(), false);
    release(frame);
  }
}

void JsonRpcServer::release(const std::shared_ptr<Frame>& frame) {
  if (frame->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  obs::Tracer& tracer = obs::Tracer::global();
  const double done = tracer.now_us();
  handle_us_.record(done - frame->ctx.handoff_us);
  obs::stage_slice(frame->ctx, "net.handle", frame->ctx.handoff_us, done,
                   tracer);
  request_total_us_.record(done - frame->ctx.born_us);
  obs::finish_request(frame->ctx, tracer);
  // Dropped if the client hung up meanwhile; the frame dies with the task.
  with_connection(frame->conn_id, [this, frame](Connection& conn) {
    respond_frame(conn, *frame);
  });
}

void JsonRpcServer::respond_frame(Connection& conn, Frame& frame) {
  obs::Tracer& tracer = obs::Tracer::global();
  const double encode_start = tracer.now_us();
  std::string body;
  if (frame.batch) body += '[';
  std::size_t answered = 0;
  for (Frame::Call& call : frame.calls) {
    if (call.notification) continue;
    if (answered++ > 0) body += ',';
    const std::size_t call_start = body.size();
    if (!call.response) {
      try {
        body += "{\"jsonrpc\":\"2.0\",\"id\":";
        call.id.dump_to(body);
        body += ",\"result\":";
        call.result(body);
        body += '}';
      } catch (const RpcError& error) {
        call.response =
            make_error_response(call.id, error.code(), error.what());
      } catch (const std::exception& error) {
        call.response = make_error_response(
            call.id, rpc_errors::kInternalError,
            std::string("internal error: ") + error.what());
      }
    }
    if (call.response) {
      body.resize(call_start);  // drop whatever a failed thunk wrote
      call.response->dump_to(body);
    }
  }
  if (frame.batch) body += ']';
  encode_us_.record(tracer.now_us() - encode_start);
  // The thunks may own handler state that holds a Reply to this frame;
  // dropping them now keeps a frame from ever owning itself.
  frame.calls.clear();
  // All-notification frames get no body at all (spec: the server MUST NOT
  // return an empty array).
  if (answered == 0) {
    respond_http(conn, 204, "No Content", kJson, {}, frame.keep_alive);
  } else {
    respond_http(conn, 200, "OK", kJson, body, frame.keep_alive);
  }
  // A client may already have sent its next request while this response
  // was being produced; pick it up now.
  process_input(conn);
}

}  // namespace phishinghook::net
