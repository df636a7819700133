// Executor — the execute half of the middleware core's plan/execute split.
//
// Runs an OperationPlan stage by stage. Within a stage, steps are
// independent by construction (the Planner only groups invocations of
// distinct tactic instances), so the Executor fans them out with
// WorkerPool::run_all over a small owned pool; the calling thread
// participates, so a stage never waits for a free worker. Per-step locks
// (the per-tactic reader/writer locks of CollectionRuntime) are acquired by
// the Executor in the mode the step requests.
//
// Every stage is timed into the PerfRegistry under "core.<stage>" keyed by
// the plan's operation — the Fig. 1 performance-metrics reification
// extended from individual tactic calls to the core pipeline itself.
//
// Plans flagged inline_only (built inside a deferred-RPC section, which is
// thread-local) run entirely on the calling thread.
#pragma once

#include "common/worker_pool.hpp"
#include "core/exec/plan.hpp"

namespace datablinder::core::exec {

class Executor {
 public:
  explicit Executor(PerfRegistry& perf);

  /// Executes the plan's stages in order, fanning each stage's steps out
  /// across the pool (plus the calling thread). If any step throws, the
  /// remaining steps of the stage still run, then the lowest-index
  /// exception is rethrown on the calling thread.
  void run(OperationPlan& plan);

 private:
  static void run_locked(const PlanStep& step);

  PerfRegistry& perf_;
  WorkerPool pool_;
};

}  // namespace datablinder::core::exec
