#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phishinghook::common {

namespace {

// Set inside worker threads of any pool, and by run_regions_inline():
// nested regions run inline so a worker never blocks waiting for pool
// capacity it is itself occupying.
thread_local bool t_in_worker = false;

// Pool-wide instruments on the global registry. Only the queued path
// touches these: the inline fast path (serial pools, nested regions) runs
// for every tree node during decision-tree fits and must stay free of
// clock reads and atomic traffic.
struct PoolInstruments {
  obs::Counter regions = obs::MetricsRegistry::global().counter(
      "threadpool_regions_total");
  obs::Counter tasks = obs::MetricsRegistry::global().counter(
      "threadpool_tasks_total");
  obs::Gauge queue_depth =
      obs::MetricsRegistry::global().gauge("threadpool_queue_depth");
  obs::LatencyHistogram& task_us =
      obs::MetricsRegistry::global().histogram("threadpool_task_us");
};

PoolInstruments& pool_instruments() {
  static PoolInstruments instruments;
  return instruments;
}

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

// One parallel region: chunks still in flight plus the first exception.
struct Region {
  std::mutex m;
  std::condition_variable done;
  std::size_t pending = 0;
  std::exception_ptr error;

  void record(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(m);
    if (!error) error = e;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  if (threads == 0) throw InvalidArgument("ThreadPool needs >= 1 thread");
  // Register the pool metrics up front so the exposition carries them (at
  // zero) even when every region takes the inline fast path — e.g. a
  // single-core host, where the queued path never runs.
  pool_instruments();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
      pool_instruments().queue_depth.set(static_cast<double>(jobs_.size()));
    }
    PoolInstruments& instruments = pool_instruments();
    const auto start = std::chrono::steady_clock::now();
    job();
    instruments.task_us.record(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    instruments.tasks.inc();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ <= 1 || t_in_worker || n == 1) {
    fn(0, n);  // inline fast path: serial pool, nested region, or one item
    return;
  }

  const std::size_t chunks = std::min(threads_, n);
  auto region = std::make_shared<Region>();
  region->pending = chunks - 1;

  pool_instruments().regions.inc();
  obs::ScopedSpan span("pool.region");

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t begin = c * n / chunks;
      const std::size_t end = (c + 1) * n / chunks;
      // `fn` outlives the job: the caller blocks on the region until every
      // chunk has finished.
      jobs_.emplace_back([&fn, region, begin, end] {
        try {
          fn(begin, end);
        } catch (...) {
          region->record(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(region->m);
        if (--region->pending == 0) region->done.notify_all();
      });
    }
    pool_instruments().queue_depth.set(static_cast<double>(jobs_.size()));
  }
  cv_.notify_all();

  try {
    fn(0, n / chunks);  // chunk 0 on the calling thread
  } catch (...) {
    region->record(std::current_exception());
  }

  std::unique_lock<std::mutex> lock(region->m);
  region->done.wait(lock, [&] { return region->pending == 0; });
  if (region->error) std::rethrow_exception(region->error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

std::size_t ThreadPool::configured_threads() {
  const char* raw = std::getenv("PHISHINGHOOK_THREADS");
  if (raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end != nullptr && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
    log_warn("invalid PHISHINGHOOK_THREADS '", std::string(raw),
             "', using hardware_concurrency");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(configured_threads());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_pool.reset();  // joins the old workers first
  g_global_pool = std::make_unique<ThreadPool>(
      threads == 0 ? configured_threads() : threads);
}

void run_regions_inline() { t_in_worker = true; }

void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (t_in_worker) {
    if (n != 0) fn(0, n);
    return;
  }
  ThreadPool::global().parallel_for_chunks(n, fn);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace phishinghook::common
