#include "net/socket_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/errors.hpp"

namespace phishinghook::net {

SocketServer::SocketServer(SocketServerConfig config)
    : config_(config) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start(std::uint16_t port) {
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    throw StateError("SocketServer::start: already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw StateError(std::string("SocketServer: socket() failed: ") +
                     std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw StateError("SocketServer: cannot listen on 127.0.0.1:" +
                     std::to_string(port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_ = fd;
  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { accept_ready(); });
  // The tick drives the idle sweep and subclass deadline checks; 100 ms
  // keeps reap latency small at negligible idle cost.
  loop_.set_tick(100, [this] {
    sweep_idle();
    on_tick();
  });
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop_.run(); });
}

void SocketServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // The close-everything task lands in the loop's final task drain after
  // stop() breaks the iteration — bounded, because nothing here blocks.
  loop_.post([this] {
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) destroy_connection(id);
    if (listen_fd_ >= 0) {
      loop_.remove_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  });
  loop_.stop();
  if (thread_.joinable()) thread_.join();
}

void SocketServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    if (conns_.size() >= config_.max_connections) {
      // Cap reached: shed at the door. An immediate close is visible to
      // the client as ECONNRESET/empty response — cheaper for everyone
      // than parking a socket we will never serve.
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t id = next_id_++;
    Connection& conn = conns_[id];
    conn.id = id;
    conn.fd = fd;
    conn.events = EPOLLIN;
    conn.last_activity = std::chrono::steady_clock::now();
    connection_count_.store(conns_.size(), std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    loop_.add_fd(fd, conn.events, [this, id](std::uint32_t events) {
      connection_event(id, events);
    });
    on_open(conn);
  }
}

void SocketServer::connection_event(std::uint64_t id, std::uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // stale event for a reused fd
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
    read_ready(it->second);
    it = conns_.find(id);  // read may have destroyed the connection
    if (it == conns_.end()) return;
  }
  if (events & EPOLLOUT) {
    write_ready(it->second);
  }
}

void SocketServer::read_ready(Connection& conn) {
  const std::uint64_t id = conn.id;
  bool got_bytes = false;
  while (true) {
    char buffer[4096];
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      got_bytes = true;
      if (conn.in.size() > config_.max_in_bytes) {
        conn.last_activity = std::chrono::steady_clock::now();
        on_overflow(conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed. Anything still buffered can no longer be asked for;
      // unsent response bytes may still flush if the peer half-closed,
      // but a full close shows up as a send error and cleans up there.
      destroy_connection(id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy_connection(id);
    return;
  }
  if (got_bytes) {
    conn.last_activity = std::chrono::steady_clock::now();
    on_data(conn);
  }
}

void SocketServer::write_ready(Connection& conn) {
  flush(conn);
  auto it = conns_.find(conn.id);
  if (it == conns_.end()) return;  // flush hit a hard error and destroyed
  if (it->second.out_offset >= it->second.out.size()) {
    if (it->second.close_after_flush) {
      destroy_connection(it->second.id);
      return;
    }
  }
  update_interest(it->second);
}

void SocketServer::flush(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const long n = send_some(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset);
    if (n >= 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT will resume
    // Hard error (EPIPE, ECONNRESET): nothing to salvage. Defer the
    // destroy so callers still holding the reference finish their frame.
    conn.out.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    const std::uint64_t id = conn.id;
    loop_.post([this, id] { destroy_connection(id); });
    return;
  }
  if (conn.out_offset == conn.out.size() && !conn.out.empty()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

void SocketServer::update_interest(Connection& conn) {
  std::uint32_t events = EPOLLIN;
  if (conn.out_offset < conn.out.size()) events |= EPOLLOUT;
  if (events == conn.events) return;
  conn.events = events;
  loop_.set_events(conn.fd, events);
}

void SocketServer::send_data(Connection& conn, std::string_view data) {
  conn.out.append(data);
  flush(conn);
  if (conns_.find(conn.id) == conns_.end()) return;
  update_interest(conn);
}

void SocketServer::finish(Connection& conn) {
  conn.close_after_flush = true;
  if (conn.out_offset >= conn.out.size()) {
    const std::uint64_t id = conn.id;
    loop_.post([this, id] { destroy_connection(id); });
  }
}

void SocketServer::close_now(Connection& conn) {
  const std::uint64_t id = conn.id;
  loop_.post([this, id] { destroy_connection(id); });
}

void SocketServer::on_overflow(Connection& conn) {
  destroy_connection(conn.id);
}

void SocketServer::with_connection(std::uint64_t id,
                                   std::function<void(Connection&)> fn) {
  loop_.post([this, id, fn = std::move(fn)] {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;  // connection died first — drop
    fn(it->second);
  });
}

void SocketServer::destroy_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_.remove_fd(it->second.fd);
  ::close(it->second.fd);
  conns_.erase(it);
  connection_count_.store(conns_.size(), std::memory_order_relaxed);
  on_closed(id);
}

void SocketServer::sweep_idle() {
  if (config_.idle_timeout_ms == 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<std::uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    if (now - conn.last_activity > limit) stale.push_back(id);
  }
  for (const std::uint64_t id : stale) destroy_connection(id);
}

}  // namespace phishinghook::net
