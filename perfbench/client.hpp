// Keep-alive HTTP/1.1 JSON-RPC client for the loopback front end.
//
// One connection carries one request at a time (the server does not read
// ahead), so each client thread owns one connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

class RpcConnection {
 public:
  explicit RpcConnection(std::uint16_t port) : port_(port) {}
  ~RpcConnection();

  RpcConnection(const RpcConnection&) = delete;
  RpcConnection& operator=(const RpcConnection&) = delete;

  /// POSTs `body` and returns the response body of a 200 answer. Any
  /// transport failure or other HTTP status gives nullopt and drops the
  /// connection; the next call reconnects.
  std::optional<std::string> call(const std::string& body);

 private:
  bool connect();
  void close();
  bool send_all(const std::string& data);
  /// Reads one full response; returns its status code and body.
  std::optional<std::pair<int, std::string>> read_response();

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last response
  std::string request_;  ///< reused request buffer
};

}  // namespace perfbench
