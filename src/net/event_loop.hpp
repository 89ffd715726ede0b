// Non-blocking epoll event loop — the repo's one socket substrate.
//
// The blocking accept/recv scrape server (PR 8) hit the classic wall the
// moment anything stalled: a peer that connects and never finishes its
// request pins the accept thread, and stop() can only wait. The JSON-RPC
// scoring front-end needs hundreds of concurrent sockets with per-request
// deadlines, so both now sit on this loop: epoll in level-triggered mode,
// every fd non-blocking, one loop thread per server, and a tick callback
// for deadline sweeps — no call anywhere in the loop can block, which is
// what makes shutdown bounded by construction.
//
// Threading model: run() executes on exactly one thread (the owner spawns
// it); add_fd/set_events/remove_fd are loop-thread-only. The two
// cross-thread entry points are post() — enqueue a task and wake the loop
// via eventfd — and stop(). Everything a completion thread wants to do to
// a connection goes through post(), so connection state needs no locks at
// all. The loop runs every queued task, including tasks those tasks post,
// before each epoll_wait, so a post() from the loop thread itself, or one
// made while an earlier wake is still pending, writes no eventfd.
//
// fd-reuse caveat: a handler that closes fd A while fd B's event from the
// same epoll batch is still pending can see B's number reused. Handlers
// are therefore looked up fresh per event (closed fds miss) and must treat
// any invocation as a hint to attempt non-blocking IO, never as a
// guarantee of readiness.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace phishinghook::net {

class EventLoop {
 public:
  /// Receives the raw epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...).
  using FdHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLL* mask). Loop thread only (or
  /// before run() starts). The loop never closes the fd — owners do.
  void add_fd(int fd, std::uint32_t events, FdHandler handler);

  /// Changes the interest mask of a registered fd. Loop thread only.
  void set_events(int fd, std::uint32_t events);

  /// Deregisters; pending events for the fd are dropped. Loop thread only.
  void remove_fd(int fd);

  /// Enqueues a task onto the loop thread, waking it when it may be
  /// blocked in epoll_wait. Thread-safe; callable before run() and after
  /// stop() (tasks posted after the final drain are discarded when the
  /// loop destructs).
  void post(Task task);

  /// Runs until stop(); dispatches fd events, posted tasks, and the tick.
  void run();

  /// Wakes the loop and makes run() return after the current iteration.
  /// Thread-safe, idempotent.
  void stop();

  /// Invoked at least every `period_ms` while the loop runs (sooner when
  /// traffic flows). One tick per loop; set before run().
  void set_tick(std::uint64_t period_ms, Task tick);

 private:
  /// Runs queued tasks until the queue stays empty.
  void drain_tasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; post()/stop() write, loop drains
  std::unordered_map<int, FdHandler> handlers_;

  std::mutex task_mutex_;
  std::deque<Task> tasks_;
  bool stop_requested_ = false;  ///< guarded by task_mutex_
  /// The eventfd was written since the loop last took the task queue;
  /// guarded by task_mutex_.
  bool wake_pending_ = false;
  std::thread::id loop_thread_;  ///< set by run(); guarded by task_mutex_

  std::uint64_t tick_period_ms_ = 0;
  Task tick_;
};

/// Puts `fd` into non-blocking mode (O_NONBLOCK). Returns false on error.
bool set_nonblocking(int fd);

namespace testing {
/// Makes the next `n` net-layer send() calls fail with EINTR before any
/// bytes move — a deterministic stand-in for a signal landing mid-write.
/// The regression tests for the old write_all abort-on-EINTR bug use this.
void force_send_eintr(int n);
}  // namespace testing

/// send() wrapper used by every net-layer writer: retries EINTR (including
/// injected ones), returns -1 with errno for everything else. EAGAIN is
/// surfaced to the caller, whose buffered-write state machine waits for
/// EPOLLOUT instead of spinning.
long send_some(int fd, const char* data, std::size_t len);

}  // namespace phishinghook::net
