// Network-layer tests: JSON document model, the HTTP server's scrape paths
// (with regressions for the four bugs an earlier blocking scrape endpoint
// shipped: HEAD-as-GET, EINTR-aborted writes, unbounded stop() on a
// stalled peer, split-request mis-parse), and its JSON-RPC 2.0 front door
// (protocol errors, 405 with Allow, requests split at every framing
// boundary, batches, the Reply completion contract, keep-alive,
// disconnects, stop with a held reply, and a concurrent-clients hammer the
// TSan leg runs).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "net/event_loop.hpp"
#include "net/json.hpp"
#include "net/json_rpc_server.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace phishinghook;

// --- socket helpers ----------------------------------------------------------

/// Connects to 127.0.0.1:port with a 5s IO timeout; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_to_eof(int fd) {
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

/// Reads exactly one HTTP response off a keep-alive connection: headers
/// until the blank line, then Content-Length body bytes.
std::string recv_one_response(int fd) {
  std::string response;
  char ch = 0;
  while (response.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return response;
    response.push_back(ch);
  }
  std::size_t body_len = 0;
  const std::size_t cl = response.find("Content-Length: ");
  if (cl != std::string::npos) {
    body_len = static_cast<std::size_t>(
        std::strtoul(response.c_str() + cl + 16, nullptr, 10));
  }
  const std::size_t head_end = response.find("\r\n\r\n") + 4;
  while (response.size() < head_end + body_len) {
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

/// One-shot request (Connection embedded in `request`), read to EOF.
std::string round_trip(std::uint16_t port, const std::string& request) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  send_all(fd, request);
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  return response;
}

std::string http_request(const char* method, const std::string& target) {
  return std::string(method) + " " + target + " HTTP/1.0\r\nHost: x\r\n\r\n";
}

/// JSON-RPC POST with Connection: close.
std::string rpc_post(std::uint16_t port, const std::string& body) {
  return round_trip(
      port, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                body);
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

// --- JSON document model -----------------------------------------------------

TEST(NetJson, ParseDumpRoundTripKeepsIntegralIds) {
  std::string error;
  const auto doc = net::JsonValue::parse(
      R"({"id":7,"pi":2.5,"flag":true,"none":null,"list":[1,-2,"x"]})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("id")->as_number(), 7.0);
  const std::string text = doc->dump();
  // Integral numbers must not grow a fractional part — the JSON-RPC id
  // echo has to match what the client sent.
  EXPECT_NE(text.find("\"id\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("\"pi\":2.5"), std::string::npos) << text;
  const auto again = net::JsonValue::parse(text, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->dump(), text);
}

TEST(NetJson, RejectsTrailingGarbageAndControlChars) {
  std::string error;
  EXPECT_FALSE(net::JsonValue::parse("1 2", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("{\"a\":1}x", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("\"a\nb\"", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("", &error).has_value());
}

TEST(NetJson, DepthLimitStopsNestingBombs) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += '[';
  std::string error;
  EXPECT_FALSE(net::JsonValue::parse(bomb, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
  // At the default limit, 32 levels are fine.
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(net::JsonValue::parse(ok, &error).has_value()) << error;
}

TEST(NetJson, UnicodeEscapesIncludingSurrogatePairs) {
  std::string error;
  const auto doc = net::JsonValue::parse(R"(["\u00e9", "\ud83d\ude00"])",
                                         &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->as_array()[0].as_string(), "\xc3\xa9");
  EXPECT_EQ(doc->as_array()[1].as_string(), "\xf0\x9f\x98\x80");
  // Lone surrogate halves are malformed.
  EXPECT_FALSE(net::JsonValue::parse(R"("\ud83d")", &error).has_value());
}

/// The number form the JSON writer has always printed, via printf.
std::string printf_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  if (x == std::floor(x) && std::fabs(x) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", x);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", x);
  }
  return buf;
}

TEST(NetJson, NumbersPrintExactlyAsPrintfDoes) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, 0.5, 1.0, -1.0, 1.5, 2.5, 1e-5, 0.3, 1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      8999999999999999.0, 9.0e15, -9.0e15, 9.0e15 + 2.0, 9007199254740992.0,
      18446744073709551615.0, 1e21, 1e22, 1e-300, 123456789.125};
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    switch (i % 4) {
      case 0:  // any bit pattern: subnormals, NaNs, huge exponents
        values.push_back(std::bit_cast<double>(rng()));
        break;
      case 1:  // probabilities
        values.push_back(unit(rng));
        break;
      case 2:  // integral values on both sides of the 9e15 switch
        values.push_back(std::ldexp(static_cast<double>(rng() >> 11),
                                    static_cast<int>(rng() % 20)) -
                         9.0e15);
        break;
      default:  // microsecond latencies
        values.push_back(unit(rng) * 1e6);
    }
  }
  for (const double x : values) {
    ASSERT_EQ(net::JsonValue::number(x).dump(), printf_number(x))
        << "bits " << std::bit_cast<std::uint64_t>(x);
  }
}

TEST(NetJson, EscapeMatchesTheByteLoopItReplaced) {
  const auto reference = [](std::string_view text) {
    std::string out;
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(net::json_string_escape(one), reference(one)) << "byte " << b;
    every_byte += one;
    every_byte += "ab";
  }
  EXPECT_EQ(net::json_string_escape(every_byte), reference(every_byte));
  std::string appended = "kept:";
  net::json_escape_to(appended, "say \"hi\"\n");
  EXPECT_EQ(appended, "kept:say \\\"hi\\\"\\n");
}

// --- scrape regressions ------------------------------------------------------

class ScrapeRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.counter("netreg_test_total").inc(42);
    server_.add_registry(registry_);
    server_.start(0);
  }
  void TearDown() override { server_.stop(); }

  obs::MetricsRegistry registry_;
  net::JsonRpcServer server_;
};

// Bug 1: HEAD was treated exactly like GET and sent the full body.
TEST_F(ScrapeRegressionTest, HeadGetsHeadersAndContentLengthButNoBody) {
  const std::string get =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  const std::string head =
      round_trip(server_.port(), http_request("HEAD", "/metrics"));
  ASSERT_NE(get.find("200 OK"), std::string::npos);
  ASSERT_NE(head.find("200 OK"), std::string::npos);

  const std::string get_body = body_of(get);
  EXPECT_NE(get_body.find("netreg_test_total"), std::string::npos);
  // HEAD: no body at all...
  EXPECT_TRUE(body_of(head).empty()) << body_of(head);
  // ...but the Content-Length a GET would have produced.
  const std::string expected =
      "Content-Length: " + std::to_string(get_body.size()) + "\r\n";
  EXPECT_NE(head.find(expected), std::string::npos) << head;
}

// Bug 2: write_all() returned (dropping the rest of the response)
// on the first EINTR. send_some must retry through injected EINTRs.
TEST_F(ScrapeRegressionTest, EintrDuringSendStillDeliversFullResponse) {
  // Something big enough that the response takes several send() calls.
  obs::MetricsRegistry big;
  for (int i = 0; i < 200; ++i) {
    big.counter("netreg_bulk_total",
                obs::label("idx", std::to_string(i)))
        .inc(static_cast<std::uint64_t>(i));
  }
  server_.add_registry(big);
  const std::string clean =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  net::testing::force_send_eintr(3);
  const std::string interrupted =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  EXPECT_EQ(interrupted, clean);
  EXPECT_NE(interrupted.find("idx=\"199\""), std::string::npos);
}

// Bug 3: a peer that connected and then went silent pinned the
// accept thread in an untimed recv(), so stop() could hang forever.
TEST_F(ScrapeRegressionTest, StopIsBoundedWithStalledConnection) {
  const int stalled = connect_loopback(server_.port());
  ASSERT_GE(stalled, 0);
  send_all(stalled, "GET /met");  // never finished
  // Give the loop a moment to accept + buffer the partial request.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  server_.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ::close(stalled);
}

// Bug 4: the request was parsed out of a single recv(), so a head
// split across TCP segments came back 400.
TEST_F(ScrapeRegressionTest, RequestSplitAcrossSegmentsParses) {
  const int fd = connect_loopback(server_.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /heal");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send_all(fd, "thz HTTP/1.0\r\nHost: x\r\n\r\n");
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

// --- JSON-RPC server ---------------------------------------------------------

class JsonRpcTest : public ::testing::Test {
 protected:
  void start(net::RpcConfig config = {}) {
    server_ = std::make_unique<net::JsonRpcServer>(config);
    server_->register_method(
        "echo", [this](const net::JsonValue& params,
                       const net::JsonRpcServer::CallInfo&,
                       net::JsonRpcServer::Reply reply) {
          echo_calls_.fetch_add(1, std::memory_order_relaxed);
          reply([params](std::string& out) { params.dump_to(out); });
        });
    // Its thunk writes half a result, then fails.
    server_->register_method(
        "halfway", [](const net::JsonValue&,
                      const net::JsonRpcServer::CallInfo&,
                      net::JsonRpcServer::Reply reply) {
          reply([](std::string& out) {
            out += R"({"partial":[1,2)";
            throw net::RpcError(-32042, "gave up \"halfway\"");
          });
        });
    // Parks its Reply for the test thread to complete (release_held).
    server_->register_method(
        "hold", [this](const net::JsonValue&,
                       const net::JsonRpcServer::CallInfo&,
                       net::JsonRpcServer::Reply reply) {
          std::lock_guard<std::mutex> lock(held_mutex_);
          held_.push_back(std::move(reply));
          held_cv_.notify_all();
        });
    server_->register_method(
        "boom", [](const net::JsonValue&, const net::JsonRpcServer::CallInfo&,
                   net::JsonRpcServer::Reply) {
          throw std::runtime_error("kaboom");
        });
    server_->start(0);
  }
  void TearDown() override {
    // A reply still parked would keep stop() waiting on its frame.
    while (held_count() > 0) release_held(0, net::JsonValue::null());
    if (server_) server_->stop();
  }
  std::size_t held_count() {
    std::lock_guard<std::mutex> lock(held_mutex_);
    return held_.size();
  }
  void wait_held(std::size_t n) {
    std::unique_lock<std::mutex> lock(held_mutex_);
    held_cv_.wait(lock, [&] { return held_.size() >= n; });
  }
  /// Completes parked reply `i` with `result` and drops it.
  void release_held(std::size_t i, net::JsonValue result) {
    std::optional<net::JsonRpcServer::Reply> reply;
    {
      std::lock_guard<std::mutex> lock(held_mutex_);
      reply = std::move(held_[i]);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    (*reply)([result](std::string& out) { result.dump_to(out); });
  }

  std::unique_ptr<net::JsonRpcServer> server_;
  std::atomic<int> echo_calls_{0};
  std::mutex held_mutex_;
  std::condition_variable held_cv_;
  std::vector<net::JsonRpcServer::Reply> held_;
};

/// Sends one JSON-RPC POST (Connection: close) without reading the answer.
int send_rpc(std::uint16_t port, const std::string& body) {
  const int fd = connect_loopback(port);
  if (fd >= 0) {
    send_all(fd, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body);
  }
  return fd;
}

TEST_F(JsonRpcTest, EchoRoundTripAndIdFidelity) {
  start();
  const std::string response = rpc_post(
      server_->port(),
      R"({"jsonrpc":"2.0","id":41,"method":"echo","params":[1,"two"]})");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(body_of(response).find("\"id\":41"), std::string::npos);
  EXPECT_NE(body_of(response).find("\"result\":[1,\"two\"]"),
            std::string::npos);
}

TEST_F(JsonRpcTest, MalformedJsonReturnsParseError) {
  start();
  const std::string body = body_of(rpc_post(server_->port(), "{nope"));
  EXPECT_NE(body.find("-32700"), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":null"), std::string::npos);
}

TEST_F(JsonRpcTest, ProtocolViolationsGetTheirCodes) {
  start();
  // Missing jsonrpc member.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"id":1,"method":"echo"})"))
                .find("-32600"),
            std::string::npos);
  // method not a string.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"jsonrpc":"2.0","id":1,"method":4})"))
                .find("-32600"),
            std::string::npos);
  // Unknown method.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"jsonrpc":"2.0","id":1,"method":"nope"})"))
                .find("-32601"),
            std::string::npos);
  // Scalar params.
  EXPECT_NE(body_of(rpc_post(
                        server_->port(),
                        R"({"jsonrpc":"2.0","id":1,"method":"echo","params":3})"))
                .find("-32602"),
            std::string::npos);
  // Handler exception -> internal error, connection survives to report it.
  const std::string boom = body_of(rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":9,"method":"boom"})"));
  EXPECT_NE(boom.find("-32603"), std::string::npos);
  EXPECT_NE(boom.find("kaboom"), std::string::npos);
}

TEST_F(JsonRpcTest, ThunkThrowingAfterAppendingLeavesOnlyTheErrorObject) {
  start();
  const std::string single = body_of(rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":7,"method":"halfway"})"));
  EXPECT_EQ(single,
            R"({"jsonrpc":"2.0","id":7,"error":{"code":-32042,)"
            R"("message":"gave up \"halfway\""}})");

  // Beside two good calls in a batch: three well-formed entries, in order.
  const std::string batch = body_of(rpc_post(
      server_->port(),
      R"([{"jsonrpc":"2.0","id":1,"method":"echo","params":["a"]},)"
      R"({"jsonrpc":"2.0","id":2,"method":"halfway"},)"
      R"({"jsonrpc":"2.0","id":3,"method":"echo","params":{"b":0.5}}])"));
  EXPECT_EQ(batch,
            R"([{"jsonrpc":"2.0","id":1,"result":["a"]},)"
            R"({"jsonrpc":"2.0","id":2,"error":{"code":-32042,)"
            R"("message":"gave up \"halfway\""}},)"
            R"({"jsonrpc":"2.0","id":3,"result":{"b":0.5}}])");
  const std::optional<net::JsonValue> doc = net::JsonValue::parse(batch);
  ASSERT_TRUE(doc.has_value()) << batch;
  ASSERT_EQ(doc->as_array().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(doc->as_array()[i].find("id")->as_number(),
              static_cast<double>(i + 1));
  }
}

TEST_F(JsonRpcTest, NotificationsGet204NoBody) {
  start();
  const std::string response = rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","method":"echo","params":[]})");
  EXPECT_NE(response.find("204"), std::string::npos) << response;
  EXPECT_TRUE(body_of(response).empty());
  EXPECT_EQ(echo_calls_.load(), 1);  // the handler still ran
}

TEST_F(JsonRpcTest, BatchMixesValidInvalidAndNotifications) {
  start();
  const std::string body = body_of(rpc_post(
      server_->port(),
      R"([{"jsonrpc":"2.0","id":1,"method":"echo","params":["a"]},)"
      R"({"jsonrpc":"2.0","id":2,"method":"missing"},)"
      R"(42,)"
      R"({"jsonrpc":"2.0","method":"echo","params":["notify"]}])"));
  // Three responses (the notification is elided), order preserved.
  EXPECT_NE(body.find("\"result\":[\"a\"]"), std::string::npos) << body;
  EXPECT_NE(body.find("-32601"), std::string::npos);
  EXPECT_NE(body.find("-32600"), std::string::npos);
  EXPECT_EQ(echo_calls_.load(), 2);
  EXPECT_LT(body.find("\"id\":1"), body.find("\"id\":2"));

  // Empty batch and oversized batch are invalid requests.
  EXPECT_NE(body_of(rpc_post(server_->port(), "[]")).find("-32600"),
            std::string::npos);
  std::string big = "[";
  for (int i = 0; i < 65; ++i) {
    if (i > 0) big += ',';
    big += R"({"jsonrpc":"2.0","id":)" + std::to_string(i) +
           R"(,"method":"echo"})";
  }
  big += "]";
  EXPECT_NE(body_of(rpc_post(server_->port(), big)).find("-32600"),
            std::string::npos);
}

TEST_F(JsonRpcTest, TransportRulesEnforced) {
  start();
  // Every transport refusal is an Invalid Request (-32600): the frame can
  // never succeed as sent, so it must not read as a retryable shed.
  const auto expect_refused = [](const std::string& response,
                                 const char* status) {
    EXPECT_NE(response.find(status), std::string::npos) << response;
    EXPECT_NE(body_of(response).find("-32600"), std::string::npos)
        << response;
    EXPECT_EQ(body_of(response).find("-32005"), std::string::npos)
        << response;
  };
  expect_refused(round_trip(server_->port(), http_request("PUT", "/")),
                 "405");
  expect_refused(
      round_trip(server_->port(), "POST / HTTP/1.1\r\nHost: x\r\n\r\n"),
      "411");
  expect_refused(round_trip(server_->port(),
                            "POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n"),
                 "400");
  expect_refused(round_trip(server_->port(), "GARBAGE\r\n\r\n"), "400");
  expect_refused(round_trip(server_->port(),
                            "POST / HTTP/1.1\r\nX-Pad: " +
                                std::string(16500, 'a')),
                 "431");
  // Declared body over the cap is refused before it is read.
  net::RpcConfig config;
  config.max_body_bytes = 512;
  TearDown();
  start(config);
  expect_refused(round_trip(server_->port(),
                            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: "
                            "100000\r\nConnection: close\r\n\r\n"),
                 "413");
}

// RFC 9110 §15.5.6: a 405 must say which methods the resource takes.
TEST_F(JsonRpcTest, UnknownMethodGets405WithAllow) {
  start();
  for (const char* method : {"PUT", "DELETE"}) {
    const std::string response = round_trip(
        server_->port(),
        http_request(method, method[0] == 'P' ? "/" : "/metrics"));
    EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos)
        << response;
    EXPECT_NE(response.find("\r\nAllow: GET, HEAD, POST\r\n"),
              std::string::npos)
        << response;
  }
  EXPECT_EQ(
      server_->metrics_registry().counter("net_requests_malformed").value(),
      2u);
  EXPECT_EQ(server_->requests_received(), 0u);
}

// Scrapes and JSON-RPC frames share one framing path. Each request is sent
// in two writes, split inside the method, the target, a header name, one
// byte before the blank line's final '\n', between head and body, and
// inside the body, over one keep-alive connection; every response must be
// the bytes a one-shot send gets. The GET carries a short body so that
// every offset exists for it too and the framing must skip those bytes.
TEST_F(JsonRpcTest, RequestsSplitAtEveryBoundaryAnswerAsOneShot) {
  start();
  server_->set_health([] { return std::string("{\"status\":\"fixed\"}"); });
  const std::string rpc_body =
      R"({"jsonrpc":"2.0","id":7,"method":"echo","params":[1,"two"]})";
  const std::vector<std::string> requests = {
      "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
      "POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(rpc_body.size()) + "\r\n\r\n" + rpc_body,
  };
  const auto offsets = [](const std::string& request) {
    const std::size_t blank = request.find("\r\n\r\n");
    return std::vector<std::size_t>{2, request.find(' ') + 3,
                                    request.find("Host") + 2, blank + 3,
                                    blank + 4, blank + 6};
  };

  const int fd = connect_loopback(server_->port());
  ASSERT_GE(fd, 0);
  // Send each write at once instead of holding it for the peer's ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<std::string> one_shot;
  for (const std::string& request : requests) {
    send_all(fd, request);
    one_shot.push_back(recv_one_response(fd));
  }
  EXPECT_NE(one_shot[0].find("{\"status\":\"fixed\"}"), std::string::npos)
      << one_shot[0];
  EXPECT_NE(one_shot[1].find("\"result\":[1,\"two\"]"), std::string::npos)
      << one_shot[1];
  for (std::size_t r = 0; r < requests.size(); ++r) {
    for (const std::size_t at : offsets(requests[r])) {
      ASSERT_LT(at, requests[r].size());
      send_all(fd, requests[r].substr(0, at));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      send_all(fd, requests[r].substr(at));
      EXPECT_EQ(recv_one_response(fd), one_shot[r])
          << "request " << r << " split at " << at;
    }
  }
  ::close(fd);
  EXPECT_EQ(server_->requests_received(), 14u);
  EXPECT_EQ(
      server_->metrics_registry().counter("net_requests_malformed").value(),
      0u);
}

TEST_F(JsonRpcTest, KeepAliveServesSequentialRequests) {
  start();
  const int fd = connect_loopback(server_->port());
  ASSERT_GE(fd, 0);
  const auto post = [&](const std::string& body) {
    send_all(fd, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);
    return recv_one_response(fd);
  };
  const std::string first =
      post(R"({"jsonrpc":"2.0","id":1,"method":"echo","params":[1]})");
  const std::string second =
      post(R"({"jsonrpc":"2.0","id":2,"method":"echo","params":[2]})");
  ::close(fd);
  EXPECT_NE(first.find("\"id\":1"), std::string::npos) << first;
  EXPECT_NE(second.find("\"id\":2"), std::string::npos) << second;
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos);
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(JsonRpcTest, HeldReplyIsCompletedByAnotherThread) {
  start();
  std::string response;
  std::thread client([&] {
    response = rpc_post(server_->port(),
                        R"({"jsonrpc":"2.0","id":1,"method":"hold"})");
  });
  wait_held(1);
  // The handler returned long ago; the frame waits on its parked reply
  // while the loop keeps serving other connections.
  const std::string other = rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":2,"method":"echo"})");
  EXPECT_NE(other.find("\"id\":2"), std::string::npos) << other;
  EXPECT_EQ(server_->frames_in_flight(), 1u);
  release_held(0, net::JsonValue::string("opened"));
  client.join();
  EXPECT_NE(body_of(response).find("\"result\":\"opened\""),
            std::string::npos)
      << response;
}

TEST_F(JsonRpcTest, BatchRepliesInReverseStillAnswerInRequestOrder) {
  start();
  std::string body;
  std::thread client([&] {
    body = body_of(rpc_post(
        server_->port(),
        R"([{"jsonrpc":"2.0","id":1,"method":"hold"},)"
        R"({"jsonrpc":"2.0","id":2,"method":"hold"},)"
        R"({"jsonrpc":"2.0","id":3,"method":"hold"}])"));
  });
  wait_held(3);
  // Complete the last call first: the held replies are in call order.
  for (int k = 3; k >= 1; --k) {
    release_held(static_cast<std::size_t>(k - 1),
                 net::JsonValue::number(k * 10));
  }
  client.join();
  EXPECT_EQ(body,
            R"([{"jsonrpc":"2.0","id":1,"result":10},)"
            R"({"jsonrpc":"2.0","id":2,"result":20},)"
            R"({"jsonrpc":"2.0","id":3,"result":30}])");
}

TEST_F(JsonRpcTest, StopWaitsForHeldReplyToBeReleased) {
  start();
  const int fd =
      send_rpc(server_->port(), R"({"jsonrpc":"2.0","id":1,"method":"hold"})");
  ASSERT_GE(fd, 0);
  wait_held(1);
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server_->stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "stop() returned with a reply outstanding";
  release_held(0, net::JsonValue::string("late"));
  stopper.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_EQ(server_->frames_in_flight(), 0u);
  // The loop was still running when the reply landed, so it was answered.
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("\"result\":\"late\""), std::string::npos)
      << response;
}

TEST_F(JsonRpcTest, ClientDisconnectMidResponseLeavesServerHealthy) {
  start();
  // Park a request and hang up before it is answered.
  const int fd =
      send_rpc(server_->port(), R"({"jsonrpc":"2.0","id":1,"method":"hold"})");
  ASSERT_GE(fd, 0);
  wait_held(1);
  ::close(fd);
  while (server_->connections() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A helper thread replies after the client is gone: the response is
  // dropped with its connection, and the server keeps serving.
  std::thread helper([&] { release_held(0, net::JsonValue::string("done")); });
  helper.join();
  const std::string after = rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":2,"method":"echo"})");
  EXPECT_NE(after.find("\"id\":2"), std::string::npos) << after;
  while (server_->frames_in_flight() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->metrics_registry().counter("net_requests_total").value(),
            server_->metrics_registry().counter("net_responses_total").value() +
                1);
}

// The TSan leg runs this: many client threads against the loop exercises
// frame completion, with_connection re-entry, and metric writes.
TEST_F(JsonRpcTest, ConcurrentClientsAllGetTheirOwnResponses) {
  start();
  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const int id = t * 1000 + i;
        const std::string response = rpc_post(
            server_->port(),
            R"({"jsonrpc":"2.0","id":)" + std::to_string(id) +
                R"(,"method":"echo","params":[)" + std::to_string(id) +
                "]}");
        if (response.find("\"id\":" + std::to_string(id) + ",") ==
                std::string::npos ||
            response.find("\"result\":[" + std::to_string(id) + "]") ==
                std::string::npos) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(echo_calls_.load(), kThreads * kRequests);
  EXPECT_EQ(server_->requests_received(),
            static_cast<std::uint64_t>(kThreads * kRequests));
}

// A post() from the loop thread writes no eventfd, so the loop must run a
// task posted by a task before it blocks again: with no tick and no fd
// traffic, a stranded task would wait forever.
TEST(EventLoopTasks, TaskPostedByATaskRunsWithoutAnotherWake) {
  net::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::mutex mutex;
  std::condition_variable cv;
  int ran = 0;
  const auto note = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    ++ran;
    cv.notify_all();
  };
  loop.post([&] {
    loop.post([&] {
      loop.post(note);
      note();
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return ran == 2; }));
  }
  // Cross-thread posts still wake the loop, pending wake or not.
  for (int i = 0; i < 100; ++i) loop.post(note);
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return ran == 102; }));
  }
  loop.stop();
  runner.join();
}

TEST(JsonRpcLifecycle, StartTwiceThrowsAndStopIsIdempotent) {
  net::JsonRpcServer server;
  server.start(0);
  EXPECT_THROW(server.start(0), StateError);
  server.stop();
  server.stop();
}

}  // namespace
