// Loopback TCP server base: the connection lifecycle shared by the scrape
// endpoint and the JSON-RPC scoring front-end.
//
// Owns one EventLoop plus the thread that runs it, the listen socket
// (loopback only, port 0 = ephemeral) and a table of buffered connections.
// Per connection the server keeps a read buffer that grows as bytes arrive
// and a write buffer drained opportunistically: send_data() flushes as much
// as the kernel takes immediately (retrying EINTR via send_some) and arms
// EPOLLOUT for the rest, so a peer that reads slowly costs memory, never a
// blocked thread. This is the state machine whose absence caused all four
// bugs in the old blocking scrape path: HEAD bodies, EINTR aborts, the
// shutdown hang, and the single-recv request parse.
//
// Protocol subclasses implement on_data(conn) — inspect conn.in, consume
// complete frames, queue responses with send_data() — and run entirely on
// the loop thread, so connection state needs no locking. Work finished on
// *other* threads (an engine worker replying to a scoring call) re-enters
// via with_connection(id, fn), which posts onto the loop and silently drops
// when the connection died in the meantime — the generation-free id (never
// reused within a server) makes that race benign.
//
// Overload behavior: accepts beyond max_connections are answered by an
// immediate close (counted, visible as net_connections_rejected); a read
// buffer past max_in_bytes triggers on_overflow, whose default closes but
// which protocols override to say 413 first; connections idle past
// idle_timeout_ms are reaped by the loop tick — that sweep is what bounds
// stop() even when a client stalls mid-request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/event_loop.hpp"

namespace phishinghook::net {

struct SocketServerConfig {
  std::size_t max_connections = 128;
  /// Read-buffer cap per connection; exceeding it fires on_overflow.
  std::size_t max_in_bytes = 1 << 20;
  /// Connections with no byte movement for this long are closed by the
  /// tick sweep. 0 disables the sweep (tests that stall on purpose).
  std::uint64_t idle_timeout_ms = 30000;
};

class SocketServer {
 public:
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
    /// Protocol scratch (HTTP parse state, in-flight flag, ...).
    std::shared_ptr<void> user;
  };

  explicit SocketServer(SocketServerConfig config = {});
  virtual ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and starts the loop
  /// thread. Throws StateError if already started or the bind fails.
  void start(std::uint16_t port);

  /// Closes every connection and the listener, stops the loop, joins.
  /// Bounded: nothing in the loop blocks. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Live connection count (loop-maintained, read anywhere).
  std::size_t connections() const {
    return connection_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 protected:
  /// New bytes appended to conn.in. Loop thread. Consume complete frames
  /// from the front; leave partial frames buffered.
  virtual void on_data(Connection& conn) = 0;

  /// Connection accepted (before any bytes). Loop thread.
  virtual void on_open(Connection& conn) { (void)conn; }

  /// Connection gone (peer close, error, overflow, idle reap, stop).
  /// Loop thread; the Connection object is already destroyed.
  virtual void on_closed(std::uint64_t id) { (void)id; }

  /// conn.in exceeded max_in_bytes. Default: close. Protocols may queue a
  /// final error response (send_data + close_after_flush) instead.
  virtual void on_overflow(Connection& conn);

  /// Queues bytes and flushes what the kernel takes now. Loop thread.
  void send_data(Connection& conn, std::string_view data);

  /// Marks the connection to close once its write buffer drains (or now,
  /// when already drained). Loop thread.
  void finish(Connection& conn);

  /// Closes immediately, dropping unsent bytes. Loop thread.
  void close_now(Connection& conn);

  /// Runs `fn(conn)` on the loop thread if connection `id` is still alive;
  /// drops silently otherwise. Thread-safe — the hand-back path for work
  /// completed on other threads.
  void with_connection(std::uint64_t id, std::function<void(Connection&)> fn);

  /// Extra per-tick work on the loop thread (deadline sweeps beyond the
  /// idle reap). Default: nothing.
  virtual void on_tick() {}

  EventLoop& loop() { return loop_; }

 private:
  void accept_ready();
  void connection_event(std::uint64_t id, std::uint32_t events);
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  void flush(Connection& conn);
  void update_interest(Connection& conn);
  void destroy_connection(std::uint64_t id);
  void sweep_idle();

  SocketServerConfig config_;
  EventLoop loop_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::unordered_map<std::uint64_t, Connection> conns_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::size_t> connection_count_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace phishinghook::net
