#include "core/exec/executor.hpp"

#include <algorithm>

namespace datablinder::core::exec {

namespace {
std::size_t default_workers() {
  const std::size_t hw = std::thread::hardware_concurrency();
  // Small by design: index fan-out width is bounded by tactics-per-document
  // (single digits); the calling thread participates too.
  return std::clamp<std::size_t>(hw == 0 ? 2 : hw / 2, 2, 4);
}
}  // namespace

Executor::Executor(PerfRegistry& perf, std::size_t workers) : perf_(perf) {
  const std::size_t n = workers == 0 ? default_workers() : workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard lock(queue_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::run_locked(const PlanStep& step) {
  if (step.lock == nullptr) {
    step.run();
  } else if (step.exclusive) {
    std::unique_lock lock(*step.lock);
    step.run();
  } else {
    std::shared_lock lock(*step.lock);
    step.run();
  }
}

void Executor::execute_claimed(StageBatch& batch) {
  const std::size_t total = batch.total;
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) return;
    std::exception_ptr error;
    try {
      run_locked((*batch.steps)[i]);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(batch.done_mutex);
    if (error && !batch.error) batch.error = error;
    if (++batch.done == total) batch.done_cv.notify_all();
  }
}

void Executor::run_stage_pooled(PlanStage& stage) {
  auto batch = std::make_shared<StageBatch>(stage.steps);
  {
    std::lock_guard lock(queue_mutex_);
    queue_.push_back(batch);
  }
  work_cv_.notify_all();

  // The submitting thread works its own batch instead of idling.
  execute_claimed(*batch);

  std::unique_lock lock(batch->done_mutex);
  batch->done_cv.wait(lock, [&] { return batch->done == batch->total; });
  if (batch->error) std::rethrow_exception(batch->error);
}

void Executor::run(OperationPlan& plan) {
  for (auto& stage : plan.stages) {
    if (stage.steps.empty()) continue;
    const ScopedPerf perf(perf_, "core." + stage.name, plan.op);
    if (plan.inline_only || stage.steps.size() == 1 || workers_.empty()) {
      // Sequential fast path: single-step stages and deferred-RPC sections
      // (deferral is thread-local). Exceptions propagate immediately.
      for (const auto& step : stage.steps) run_locked(step);
    } else {
      run_stage_pooled(stage);
    }
  }
}

// dblint:thread-root
void Executor::worker_loop() {
  for (;;) {
    std::shared_ptr<StageBatch> batch;
    {
      std::unique_lock lock(queue_mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to help with
      batch = queue_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->total) {
        // Fully claimed: retire it from the queue and look again.
        queue_.pop_front();
        continue;
      }
    }
    // dblint:allow(guard-escape): 'batch' is a shared_ptr copy; refcount keeps it alive
    execute_claimed(*batch);
  }
}

}  // namespace datablinder::core::exec
