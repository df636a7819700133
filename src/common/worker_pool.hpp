// WorkerPool — the library's one owned pool of worker threads, grown on
// demand and joined by its destructor.
//
// Every piece of background work runs here: the Executor's per-stage step
// fan-out, the shard router's scatter sub-calls, a replica group's hedged
// read attempts and the Paillier randomizer refill. Some of that work
// blocks a worker for a whole channel exchange, so a fixed-size pool would
// serialize concurrent callers. The pool therefore spawns a worker
// whenever a task arrives and no idle worker can take it, up to
// `max_threads`; idle workers park on a condition variable for the next
// task. Spawning once and waking afterwards avoids a pthread create/join
// per task. No thread outlives the pool: the destructor runs every queued
// task to completion and joins every worker, so an owner that declares its
// pool last has every task finish before its other members are destroyed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace datablinder {

class WorkerPool {
 public:
  explicit WorkerPool(std::size_t max_threads) : max_threads_(max_threads) {}
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queues `task` for a worker. Tasks must not throw.
  void submit(std::function<void()> task);

  /// Runs fn(0), ..., fn(n - 1) in parallel and returns once all have
  /// finished. The calling thread claims indexes alongside up to
  /// `max_threads` workers, so progress never waits for a free worker; a
  /// worker that starts after every index was claimed touches only the
  /// call's shared state, never `fn`. Every index runs even if some throw;
  /// the lowest-index exception is then rethrown here.
  void run_all(std::size_t n, const std::function<void(std::size_t)>& fn);

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

}  // namespace datablinder
