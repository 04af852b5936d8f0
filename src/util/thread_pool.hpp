// Persistent work-stealing thread pool.
//
// Workers pull indices from a shared atomic cursor, so a finished
// worker immediately steals the next undone index: one slow call
// (relay-mode Zoom with filler bursts) never idles the others, as it
// would under barrier-per-wave dispatch.
//
// Determinism: parallel_for only decides *when* fn(i) runs, never what
// it computes; callers write results[i] and merge in a fixed order, so
// pooled and serial runs produce identical output (enforced by
// tests/test_determinism.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rtcc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, created on first use and reused across calls /
  /// experiments, with shared_size() workers.
  static ThreadPool& shared();

  /// Worker count of shared(): RTCC_THREADS when set (>0), otherwise
  /// hardware_concurrency. Resolved once; never creates the pool, so
  /// callers can size work (the auto analysis width) without spawning.
  [[nodiscard]] static unsigned shared_size();

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(0) .. fn(n-1) across the pool and returns when all have
  /// completed. The calling thread participates (steals indices), so
  /// nested parallel_for from inside a task cannot deadlock: the inner
  /// caller can always drain its own batch alone while idle workers
  /// join from the shared queue. Rethrows the first task exception
  /// after the batch drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;

  void worker_loop();
  /// Pulls indices from `b` until its cursor passes n. Returns with the
  /// batch exhausted (but not necessarily completed by other thieves).
  static void run_batch(Batch& b);
  void retire_if_exhausted(const std::shared_ptr<Batch>& b);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  /// Batches with unstolen indices; workers steal from the front.
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
};

}  // namespace rtcc::util
