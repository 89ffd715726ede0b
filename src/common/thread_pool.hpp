// Deterministic parallel-execution substrate for the training and
// evaluation layers.
//
// A fixed-size pool with static chunking: parallel_for splits [0, n) into at
// most size() contiguous chunks, hands all but the first to the workers and
// runs the first on the calling thread. Determinism is a *caller* contract —
// every call site pre-draws its randomness serially from the master RNG and
// writes results into pre-assigned slots, and every reduction happens
// serially in index order after the region completes — so fitted models and
// predictions are bit-identical at every thread count (asserted by
// tests/test_parallel_determinism.cpp).
//
// Pool size comes from PHISHINGHOOK_THREADS (default hardware_concurrency);
// a size-1 pool runs every region inline with zero synchronization, and
// nested regions launched from inside a worker also run inline, so parallel
// code may freely call parallel code (forest over trees -> tree over
// features, hyper-search over trials -> CV over folds). A thread that owns
// its parallelism elsewhere (a serving-engine worker) marks itself with
// run_regions_inline() and gets the same inline rule without touching the
// pool at all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phishinghook::common {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the calling thread executes one chunk of
  /// every region itself. Throws InvalidArgument for threads == 0.
  explicit ThreadPool(std::size_t threads);

  /// Joins the workers (pending chunks finish first — every parallel region
  /// blocks its caller, so a live region keeps its pool alive).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrency level (1 = everything runs inline on the caller).
  std::size_t size() const { return threads_; }

  /// Runs fn(begin, end) over a static partition of [0, n) into at most
  /// size() contiguous chunks and blocks until all chunks finished. The
  /// first exception thrown by any chunk is rethrown on the caller after the
  /// region drains (remaining chunks still run; the pool stays usable).
  /// Safe to call concurrently from several threads and from inside a
  /// worker (nested regions run inline).
  void parallel_for_chunks(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Element-wise variant: fn(i) for every i in [0, n), statically chunked.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// out[i] = fn(i) for i in [0, n). T must be default-constructible; each
  /// slot is written by exactly one task and read only after the region
  /// completes, so no extra synchronization is needed.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

  /// Process-wide pool, lazily built with configured_threads() threads.
  static ThreadPool& global();

  /// Rebuilds the global pool with `threads` threads (0 = re-read the
  /// environment). Joins the old workers first; must not overlap a running
  /// region. Intended for tests and benches that sweep thread counts.
  static void set_global_threads(std::size_t threads);

  /// PHISHINGHOOK_THREADS when set to a positive integer, otherwise
  /// hardware_concurrency() (minimum 1).
  static std::size_t configured_threads();

 private:
  void worker_loop();

  std::size_t threads_ = 1;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Makes every parallel region the calling thread opens from now on run
/// inline on it, as nested regions inside a pool worker do. For threads
/// that are themselves the parallelism (the scoring engine's workers): their
/// regions then take neither the global pool's lock nor any of its threads.
void run_regions_inline();

/// Convenience wrappers over ThreadPool::global(). On a pool worker or a
/// run_regions_inline() thread they run the region inline without looking
/// the global pool up.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace phishinghook::common
