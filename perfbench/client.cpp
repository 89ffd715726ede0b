#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace perfbench {

RpcConnection::~RpcConnection() { close(); }

void RpcConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool RpcConnection::connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval timeout{10, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  return true;
}

bool RpcConnection::send_all(const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::pair<int, std::string>> RpcConnection::read_response() {
  char chunk[16384];
  const auto fill = [&]() {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  };
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return std::nullopt;
  }
  // Status line: "HTTP/1.1 200 OK".
  const std::size_t space = buffer_.find(' ');
  if (space == std::string::npos || space > head_end) return std::nullopt;
  const int status = std::atoi(buffer_.c_str() + space + 1);
  std::size_t length = 0;
  bool have_length = false;
  std::size_t line = buffer_.find("\r\n") + 2;
  while (line < head_end) {
    const std::size_t eol = buffer_.find("\r\n", line);
    static constexpr char kHeader[] = "content-length:";
    if (eol - line > sizeof(kHeader) - 1 &&
        ::strncasecmp(buffer_.c_str() + line, kHeader, sizeof(kHeader) - 1) ==
            0) {
      length = std::strtoull(buffer_.c_str() + line + sizeof(kHeader) - 1,
                             nullptr, 10);
      have_length = true;
    }
    line = eol + 2;
  }
  if (!have_length) return std::nullopt;
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    if (!fill()) return std::nullopt;
  }
  std::string body = buffer_.substr(body_start, length);
  buffer_.erase(0, body_start + length);
  return std::make_pair(status, std::move(body));
}

std::optional<std::string> RpcConnection::call(const std::string& body) {
  if (fd_ < 0 && !connect()) return std::nullopt;
  request_.assign(
      "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: ");
  request_ += std::to_string(body.size());
  request_ += "\r\n\r\n";
  request_ += body;
  if (!send_all(request_)) {
    close();
    return std::nullopt;
  }
  std::optional<std::pair<int, std::string>> response = read_response();
  if (!response || response->first != 200) {
    close();
    return std::nullopt;
  }
  return std::move(response->second);
}

}  // namespace perfbench
