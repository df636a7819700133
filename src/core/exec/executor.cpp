#include "core/exec/executor.hpp"

#include <algorithm>
#include <thread>

namespace datablinder::core::exec {

namespace {
std::size_t default_workers() {
  const std::size_t hw = std::thread::hardware_concurrency();
  // Small by design: index fan-out width is bounded by tactics-per-document
  // (single digits); the calling thread participates too.
  return std::clamp<std::size_t>(hw == 0 ? 2 : hw / 2, 2, 4);
}
}  // namespace

Executor::Executor(PerfRegistry& perf) : perf_(perf), pool_(default_workers()) {}

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

void Executor::run(OperationPlan& plan) {
  for (auto& stage : plan.stages) {
    if (stage.steps.empty()) continue;
    const ScopedPerf perf(perf_, "core." + stage.name, plan.op);
    if (plan.inline_only || stage.steps.size() == 1) {
      // Sequential fast path: single-step stages and deferred-RPC sections
      // (deferral is thread-local). Exceptions propagate immediately.
      for (const auto& step : stage.steps) run_locked(step);
    } else {
      pool_.run_all(stage.steps.size(),
                    [&stage](std::size_t i) { run_locked(stage.steps[i]); });
    }
  }
}

}  // namespace datablinder::core::exec
