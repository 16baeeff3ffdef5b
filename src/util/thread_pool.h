// Minimal fixed-size worker pool.
//
// Built for the parallel minimum-DAG builder: a handful of long-lived
// workers pull coarse row chunks off an atomic counter, so the pool only
// needs enqueue + drain. Jobs must not throw (workers would terminate);
// callers catch inside the job and report through their own channels.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ruletris::util {

/// Workers that can actually run concurrently: `requested` clamped to the
/// machine's core count (hardware_concurrency() == 0 reads as 1). Data-
/// parallel perf paths clamp through this — oversubscribing cores only adds
/// context-switch and cache-migration cost — while determinism tests build
/// oversubscribed pools deliberately to widen the interleaving space.
inline size_t effective_workers(size_t requested) {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(std::max<size_t>(1, requested), hw);
}

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t n_threads) {
    if (n_threads == 0) n_threads = 1;
    workers_.reserve(n_threads);
    for (size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock lock(mu_);
      stopping_ = true;
    }
    wake_workers_.notify_all();
    for (auto& w : workers_) w.join();
  }

  size_t size() const { return workers_.size(); }

  /// Enqueues a job for any worker.
  void run(std::function<void()> job) {
    {
      std::unique_lock lock(mu_);
      queue_.push_back(std::move(job));
      ++outstanding_;
    }
    wake_workers_.notify_one();
  }

  /// Blocks until every job enqueued so far has finished.
  void wait_idle() {
    std::unique_lock lock(mu_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lock(mu_);
        wake_workers_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ with a drained queue
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
      {
        std::unique_lock lock(mu_);
        if (--outstanding_ == 0) idle_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_workers_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t outstanding_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// One-owner-at-a-time claim for work-stealing sweeps: a worker that fails
/// to claim an item skips it instead of waiting.
class TryLock {
 public:
  bool try_acquire() {
    bool expected = false;
    return locked_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire);
  }
  void release() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// Shared work cursor for data-parallel loops: workers claim half-open
/// [begin, end) chunks off an atomic counter until the range is exhausted.
/// This is the coarse-chunk pattern the parallel DAG builder and the
/// parallel composition compile both use — results written to per-index
/// slots stay order-independent while load stays balanced.
class ChunkCursor {
 public:
  ChunkCursor(size_t begin, size_t end, size_t chunk)
      : next_(begin), end_(end), chunk_(chunk == 0 ? 1 : chunk) {}

  /// Claims the next chunk; false when the range is exhausted.
  bool next(size_t& chunk_begin, size_t& chunk_end) {
    const size_t b = next_.fetch_add(chunk_);
    if (b >= end_) return false;
    chunk_begin = b;
    chunk_end = std::min(end_, b + chunk_);
    return true;
  }

  /// Chunk size heuristic: coarse enough to amortize the atomic claim,
  /// fine enough to balance ~8 chunks per worker.
  static size_t suggest_chunk(size_t n, size_t n_threads) {
    if (n_threads == 0) n_threads = 1;
    return std::max<size_t>(16, n / (n_threads * 8));
  }

 private:
  std::atomic<size_t> next_;
  size_t end_;
  size_t chunk_;
};

/// Runs one instance of `make_job()` per pool worker and blocks until all
/// finish. Each job owns its per-thread scratch (arenas, cover buffers) in
/// its closure and drains a ChunkCursor, so callers express "parallel for
/// with per-thread state" without touching the pool internals.
template <typename JobFactory>
void run_on_workers(ThreadPool& pool, JobFactory&& make_job) {
  for (size_t t = 0; t < pool.size(); ++t) pool.run(make_job());
  pool.wait_idle();
}

}  // namespace ruletris::util
