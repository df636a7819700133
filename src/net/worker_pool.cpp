#include "net/worker_pool.hpp"

namespace datablinder::net {

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

}  // namespace datablinder::net
