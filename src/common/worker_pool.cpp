#include "common/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace datablinder {

namespace {

/// One run_all call in flight. Workers hold it by shared_ptr and may start
/// after the call returned; they then find every index claimed and never
/// dereference `fn`, which lives in the caller's frame.
struct RunAll {
  RunAll(std::size_t n, const std::function<void(std::size_t)>& f) : total(n), fn(&f) {}
  const std::size_t total;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;         // guarded by mutex
  std::size_t error_index = 0;  // guarded by mutex
  std::exception_ptr error;     // lowest-index failure, guarded by mutex
};

void claim_indexes(RunAll& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.total) return;
    std::exception_ptr error;
    try {
      (*batch.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(batch.mutex);
    if (error && (!batch.error || i < batch.error_index)) {
      batch.error = std::move(error);
      batch.error_index = i;
    }
    if (++batch.done == batch.total) batch.cv.notify_all();
  }
}

}  // namespace

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    if (queue_.size() > idle_ && threads_.size() < max_threads_) {
      threads_.emplace_back([this] { worker(); });
    }
  }
  cv_.notify_one();
}

void WorkerPool::run_all(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<RunAll>(n, fn);
  const std::size_t helpers = std::min(n - 1, max_threads_);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([batch] { claim_indexes(*batch); });
  }
  // The calling thread works its own indexes instead of idling.
  claim_indexes(*batch);
  std::unique_lock lock(batch->mutex);
  batch->cv.wait(lock, [&batch] { return batch->done == batch->total; });
  // Moved out, so the exception's last reference is dropped on this
  // thread: a worker may release `batch` after the caller caught it.
  if (batch->error) std::rethrow_exception(std::exchange(batch->error, nullptr));
}

// Pool workers run submitted tasks until the pool is destroyed; the tasks'
// own accesses are attributed to their submitting functions.
// dblint:thread-root
void WorkerPool::worker() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // 'task' was moved OUT of the queue under the lock; the std::function
    // owns its state afterwards, nothing points back into queue_.
    // dblint:allow(guard-escape): task owns its state after the move-out
    task();
  }
}

}  // namespace datablinder
