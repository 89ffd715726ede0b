#include "net/json_rpc_server.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace phishinghook::net {

namespace {

constexpr std::size_t kMaxHeadBytes = 16384;

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

JsonValue make_result_response(const JsonValue& id, JsonValue result) {
  JsonValue response;
  response.set("jsonrpc", JsonValue::string("2.0"));
  response.set("id", id);
  response.set("result", std::move(result));
  return response;
}

/// Body of a transport-level refusal (400/405/411/413/431): the frame can
/// never succeed as sent, so it is an Invalid Request, not a retryable shed.
std::string refusal_body(const std::string& why) {
  return make_error_response(JsonValue::null(), rpc_errors::kInvalidRequest,
                             why)
      .dump();
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
                     "HTTP frames received by the JSON-RPC server");
  registry_.set_help("net_requests_malformed",
                     "HTTP or JSON-RPC protocol violations answered with "
                     "an error");
  registry_.set_help("net_stage_service_us",
                     "Service time per network stage (parse, handle)");
  registry_.set_help("net_request_total_us",
                     "Frame completion to last reply, JSON-RPC layer");
}

JsonRpcServer::~JsonRpcServer() { stop(); }

void JsonRpcServer::register_method(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
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

void JsonRpcServer::export_metrics() {
  active_connections_.set(static_cast<double>(connections()));
  accepted_gauge_.set(static_cast<double>(connections_accepted()));
  rejected_gauge_.set(static_cast<double>(connections_rejected()));
}

void JsonRpcServer::on_open(Connection& conn) {
  conn.user = std::make_shared<HttpState>();
}

void JsonRpcServer::on_data(Connection& conn) { process_input(conn); }

void JsonRpcServer::on_overflow(Connection& conn) {
  malformed_.inc();
  conn.in.clear();
  respond_http(conn, 413, "Payload Too Large",
               refusal_body("request body exceeds server limit"), false);
}

void JsonRpcServer::process_input(Connection& conn) {
  auto* state = static_cast<HttpState*>(conn.user.get());
  if (state == nullptr || state->busy) return;  // response in flight
  if (conn.in.empty()) return;
  obs::Tracer& tracer = obs::Tracer::global();
  if (state->first_byte_us == 0) state->first_byte_us = tracer.now_us();

  const std::size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (conn.in.size() > kMaxHeadBytes) {
      malformed_.inc();
      respond_http(conn, 431, "Request Header Fields Too Large",
                   refusal_body("request head too large"), false);
    }
    return;  // head still arriving
  }

  // Request line: METHOD SP target SP version.
  const std::size_t method_end = conn.in.find(' ');
  if (method_end == std::string::npos || method_end > head_end) {
    malformed_.inc();
    respond_http(conn, 400, "Bad Request",
                 refusal_body("malformed request line"), false);
    return;
  }
  const std::string method = conn.in.substr(0, method_end);
  const std::size_t line_end = conn.in.find("\r\n");
  const bool http10 =
      line_end != std::string::npos && line_end >= 8 &&
      conn.in.compare(line_end - 8, 8, "HTTP/1.0") == 0;
  const std::string connection_header =
      ascii_lower(find_header(conn.in, head_end, "connection"));
  bool keep_alive = http10 ? connection_header == "keep-alive"
                           : connection_header != "close";

  if (method != "POST") {
    malformed_.inc();
    respond_http(conn, 405, "Method Not Allowed",
                 refusal_body("JSON-RPC requires POST"), false);
    return;
  }
  const std::string length_header =
      find_header(conn.in, head_end, "content-length");
  if (length_header.empty()) {
    malformed_.inc();
    respond_http(conn, 411, "Length Required",
                 refusal_body("Content-Length required"), false);
    return;
  }
  std::size_t content_length = 0;
  for (const char c : length_header) {
    if (c < '0' || c > '9') {
      malformed_.inc();
      respond_http(conn, 400, "Bad Request",
                   refusal_body("bad Content-Length"), false);
      return;
    }
    content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
    if (content_length > config_.max_body_bytes) break;
  }
  if (content_length > config_.max_body_bytes) {
    malformed_.inc();
    respond_http(conn, 413, "Payload Too Large",
                 refusal_body("request body exceeds server limit"), false);
    return;
  }
  const std::size_t frame_size = head_end + 4 + content_length;
  if (conn.in.size() < frame_size) return;  // body still arriving

  {
    std::lock_guard<std::mutex> lock(frames_mutex_);
    if (stopping_) return;  // stop() closes the connection, frame unread
    ++frames_in_flight_;
  }
  auto frame = std::make_shared<Frame>(*this, conn.id, keep_alive);
  state->busy = true;

  // The frame is complete: give the request its causal identity and
  // attribute the receive span (first byte -> frame complete) as the
  // "parse" stage on its lane.
  frame->ctx = obs::mint_request(tracer);
  const double now = tracer.now_us();
  parse_us_.record(now - state->first_byte_us);
  obs::stage_slice(frame->ctx, "net.parse", state->first_byte_us, now,
                   tracer);
  frame->ctx.handoff_us = now;
  state->first_byte_us = 0;
  requests_total_.inc();

  // Handlers never touch the connection, so the body is parsed in place.
  dispatch(frame, std::string_view(conn.in).substr(head_end + 4,
                                                   content_length));
  conn.in.erase(0, frame_size);
}

void JsonRpcServer::respond_http(Connection& conn, int status,
                                 const char* reason, const std::string& body,
                                 bool keep_alive) {
  std::string response = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                         "\r\n";
  if (status == 204) {
    response += "Connection: ";
    response += keep_alive ? "keep-alive" : "close";
    response += "\r\n\r\n";
  } else {
    response += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\nConnection: ";
    response += keep_alive ? "keep-alive" : "close";
    response += "\r\n\r\n";
    response += body;
  }
  responses_total_.inc();
  send_data(conn, response);
  if (!keep_alive) {
    finish(conn);
    return;
  }
  auto* state = static_cast<HttpState*>(conn.user.get());
  if (state != nullptr) {
    state->busy = false;
    // A well-behaved client may already have sent its next request while
    // this response was being produced; pick it up now.
    if (!conn.in.empty()) process_input(conn);
  }
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
  JsonValue responses = JsonValue::array();
  for (Frame::Call& call : frame.calls) {
    if (call.notification) continue;
    if (!call.response) {
      try {
        call.response = make_result_response(call.id, call.result());
      } catch (const RpcError& error) {
        call.response =
            make_error_response(call.id, error.code(), error.what());
      } catch (const std::exception& error) {
        call.response = make_error_response(
            call.id, rpc_errors::kInternalError,
            std::string("internal error: ") + error.what());
      }
    }
    responses.push_back(std::move(*call.response));
  }
  // The thunks may own handler state that holds a Reply to this frame;
  // dropping them now keeps a frame from ever owning itself.
  frame.calls.clear();
  // All-notification frames get no body at all (spec: the server MUST NOT
  // return an empty array).
  if (responses.as_array().empty()) {
    respond_http(conn, 204, "No Content", {}, frame.keep_alive);
    return;
  }
  respond_http(conn, 200, "OK",
               frame.batch ? responses.dump() : responses.as_array()[0].dump(),
               frame.keep_alive);
}

}  // namespace phishinghook::net
