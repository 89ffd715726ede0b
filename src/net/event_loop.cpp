#include "net/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/errors.hpp"

namespace phishinghook::net {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace {
std::atomic<int>& eintr_injections() {
  static std::atomic<int> count{0};
  return count;
}
}  // namespace

namespace testing {
void force_send_eintr(int n) {
  eintr_injections().store(n, std::memory_order_relaxed);
}
}  // namespace testing

long send_some(int fd, const char* data, std::size_t len) {
  while (true) {
    int pending = eintr_injections().load(std::memory_order_relaxed);
    while (pending > 0 && !eintr_injections().compare_exchange_weak(
                              pending, pending - 1, std::memory_order_relaxed)) {
    }
    if (pending > 0) {
      // Injected EINTR: behave exactly like a signal interrupting send()
      // before any byte moved, then take the retry path below.
      errno = EINTR;
      continue;
    }
    const ssize_t n = ::send(fd, data, len,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n >= 0) return n;
    if (errno == EINTR) continue;  // the old write_all aborted here — retry
    return -1;
  }
}

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw StateError(std::string("EventLoop: epoll_create1 failed: ") +
                     std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string why = std::strerror(errno);
    ::close(epoll_fd_);
    throw StateError("EventLoop: eventfd failed: " + why);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw StateError(std::string("EventLoop: epoll_ctl(ADD) failed: ") +
                     std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
}

void EventLoop::set_events(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::post(Task task) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    tasks_.push_back(std::move(task));
    // The loop thread drains before it next blocks, and a pending wake
    // already makes epoll_wait return: either way one more write is waste.
    wake = !wake_pending_ && std::this_thread::get_id() != loop_thread_;
    wake_pending_ = wake_pending_ || wake;
  }
  if (wake) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void EventLoop::stop() {
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    stop_requested_ = true;
  }
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::set_tick(std::uint64_t period_ms, Task tick) {
  tick_period_ms_ = period_ms;
  tick_ = std::move(tick);
}

void EventLoop::drain_tasks() {
  // Swap out under the lock, run unlocked: a task may post() again, and
  // from this thread that post wrote no eventfd, so go round until empty.
  std::deque<Task> batch;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(task_mutex_);
      batch.swap(tasks_);
      // Posts from here on must wake the loop; any write still unread only
      // makes the next epoll_wait return early.
      wake_pending_ = false;
    }
    if (batch.empty()) return;
    for (Task& task : batch) task();
    batch.clear();
  }
}

void EventLoop::run() {
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    loop_thread_ = std::this_thread::get_id();
  }
  std::vector<epoll_event> events(64);
  const int timeout_ms =
      tick_period_ms_ == 0 ? -1 : static_cast<int>(tick_period_ms_);
  while (true) {
    // Before blocking: every task posted so far, by any thread or task.
    drain_tasks();
    {
      std::lock_guard<std::mutex> lock(task_mutex_);
      if (stop_requested_) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing to serve anymore
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t buf = 0;
        (void)!::read(wake_fd_, &buf, sizeof(buf));
        continue;
      }
      // Fresh lookup per event: a handler earlier in this batch may have
      // closed this fd (see the fd-reuse caveat in the header).
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Copy the handler: it may remove_fd(fd) (erasing the map slot it
      // lives in) while still executing.
      FdHandler handler = it->second;
      handler(events[i].events);
    }
    if (tick_) tick_();
    if (n == static_cast<int>(events.size())) {
      events.resize(events.size() * 2);
    }
  }
  drain_tasks();  // run anything posted right before stop()
}

}  // namespace phishinghook::net
