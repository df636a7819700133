// Executor — the execute half of the middleware core's plan/execute split.
//
// Runs an OperationPlan stage by stage. Within a stage, steps are
// independent by construction (the Planner only groups invocations of
// distinct tactic instances), so the Executor fans them out across a small
// shared worker pool; the calling thread participates, so even a
// single-worker pool yields two-way parallelism. Per-step locks (the
// per-tactic reader/writer locks of CollectionRuntime) are acquired by the
// Executor in the mode the step requests.
//
// Every stage is timed into the PerfRegistry under "core.<stage>" keyed by
// the plan's operation — the Fig. 1 performance-metrics reification
// extended from individual tactic calls to the core pipeline itself.
//
// Plans flagged inline_only (built inside a deferred-RPC section, which is
// thread-local) run entirely on the calling thread.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/exec/plan.hpp"

namespace datablinder::core::exec {

class Executor {
 public:
  /// `workers` = 0 picks a small default from the hardware concurrency.
  explicit Executor(PerfRegistry& perf, std::size_t workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes the plan's stages in order, fanning each stage's steps out
  /// across the pool (plus the calling thread). If any step throws, the
  /// remaining steps of the stage still run, then the first exception is
  /// rethrown on the calling thread.
  void run(OperationPlan& plan);

  std::size_t worker_count() const noexcept { return workers_.size(); }

 private:
  /// One stage in flight: workers and the submitting thread claim step
  /// indexes from `next` until exhausted.
  /// `total` is cached so retirement checks never dereference `steps`: the
  /// steps vector lives in the caller's plan and dies once the submitting
  /// thread observes done == total, while workers may hold the batch
  /// (shared_ptr) a little longer.
  struct StageBatch {
    explicit StageBatch(std::vector<PlanStep>& s) : steps(&s), total(s.size()) {}
    std::vector<PlanStep>* steps;
    const std::size_t total;
    std::atomic<std::size_t> next{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::exception_ptr error;  // first failure, guarded by done_mutex
  };

  static void run_locked(const PlanStep& step);
  static void execute_claimed(StageBatch& batch);
  void run_stage_pooled(PlanStage& stage);
  void worker_loop();

  PerfRegistry& perf_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<StageBatch>> queue_;
  bool stop_ = false;
};

}  // namespace datablinder::core::exec
