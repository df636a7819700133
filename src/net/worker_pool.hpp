// WorkerPool — an owned pool of worker threads, grown on demand and joined
// by its destructor.
//
// The net layer's background work (shard scatter sub-calls, hedged read
// attempts) blocks a worker for a whole channel exchange, so a fixed-size
// pool would serialize concurrent callers. The pool therefore spawns a
// worker whenever a task arrives and no idle worker can take it, up to
// `max_threads`; idle workers park on a condition variable for the next
// task. Spawning once and waking afterwards avoids a pthread create/join
// per sub-call. No thread outlives the pool: the destructor runs every
// queued task to completion and joins every worker, so an owner that
// declares its pool last has every task finish before its other members
// are destroyed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datablinder::net {

class WorkerPool {
 public:
  explicit WorkerPool(std::size_t max_threads) : max_threads_(max_threads) {}
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queues `task` for a worker. Tasks must not throw.
  void submit(std::function<void()> task);

 private:
  void worker();

  const std::size_t max_threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t idle_ = 0;
  bool stop_ = false;
};

}  // namespace datablinder::net
