#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/env_knob.hpp"

namespace rtcc::util {

struct ThreadPool::Batch {
  /// Next index to steal; may overshoot n (each overshooting thief just
  /// leaves). fetch_add here IS the steal operation.
  std::atomic<std::size_t> next{0};
  /// Indices whose fn() call has returned (or thrown).
  std::atomic<std::size_t> done{0};
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = std::max(1u, threads);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

unsigned ThreadPool::shared_size() {
  static const unsigned size = [] {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(rtcc::util::env_knob_ll(
        "RTCC_THREADS", static_cast<long long>(hw), 1, 1024));
  }();
  return size;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(shared_size());
  return pool;
}

void ThreadPool::run_batch(Batch& b) {
  for (;;) {
    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.n) return;
    try {
      (*b.fn)(i);
    } catch (...) {
      std::lock_guard lk(b.mutex);
      if (!b.error) b.error = std::current_exception();
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.n) {
      // Lock pairs with the waiter's predicate check so the notify
      // cannot slip between its test and its wait.
      std::lock_guard lk(b.mutex);
      b.done_cv.notify_all();
    }
  }
}

void ThreadPool::retire_if_exhausted(const std::shared_ptr<Batch>& b) {
  std::lock_guard lk(mutex_);
  if (b->next.load(std::memory_order_relaxed) < b->n) return;
  const auto it = std::find(queue_.begin(), queue_.end(), b);
  if (it != queue_.end()) queue_.erase(it);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lk(mutex_);
      work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to steal
      batch = queue_.front();
    }
    run_batch(*batch);
    retire_if_exhausted(batch);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {  // nothing to steal; skip the queue round-trip
    fn(0);
    return;
  }

  const auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  {
    std::lock_guard lk(mutex_);
    queue_.push_back(batch);
  }
  work_cv_.notify_all();

  // Caller participates: steal until the cursor runs out, then wait for
  // in-flight thieves to finish their last index.
  run_batch(*batch);
  retire_if_exhausted(batch);
  {
    std::unique_lock lk(batch->mutex);
    batch->done_cv.wait(
        lk, [&] { return batch->done.load(std::memory_order_acquire) >= n; });
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace rtcc::util
