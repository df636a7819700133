// Performance-metric reification (the third axis of the tactic abstraction
// model, Fig. 1: every tactic operation "comes with a performance cost
// impacting clients' experience").
//
// The gateway records the latency of every tactic protocol invocation
// here, keyed by (tactic, operation). Operators read the report to see
// where a policy's cost actually lands — e.g. that Paillier aggregates
// dominate, the observation §5.2 makes about the evaluation numbers.
//
// Beyond the cumulative count/total/max, every series maintains a *live
// cost signal* for the adaptive selection loop (cost_model.hpp): a decayed
// EWMA of the per-call latency plus a bounded ring of recent samples from
// which streaming p50/p95 are computed on demand. The ring doubles as the
// decay mechanism — only the last kWindow samples shape the quantiles and
// the blending weight, so a tactic that was slow under an old data size
// ages out instead of haunting the model.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/counters.hpp"
#include "common/perf_series.hpp"
#include "core/spi.hpp"

namespace datablinder::core {

// OpStats and PerfSeries now live in common/perf_series.hpp (the replica
// group's failure-accrual detector in net/ shares them); re-exported here
// so core code and tests keep their spelling.
using datablinder::OpStats;
using datablinder::PerfSeries;

/// Latency series per (tactic, operation), plus the named event counters
/// it inherits from Counters (incr / counter / counters), so one registry
/// snapshot covers the whole middleware.
class PerfRegistry : public Counters {
 public:
  void record(const std::string& tactic, TacticOperation op, std::uint64_t ns);

  /// Consistent copy of all recorded series.
  std::map<std::pair<std::string, TacticOperation>, OpStats> snapshot() const;

  /// Stats for one (tactic, operation) pair (zeroes if never recorded).
  OpStats stats(const std::string& tactic, TacticOperation op) const;

  /// Stable handle for repeated lock-free reads of one series — resolve
  /// once, then poll ewma_us()/recent_count() per query without ever
  /// re-taking the registry mutex. The series is created empty if it was
  /// never recorded; handles stay valid until reset().
  const PerfSeries* handle(const std::string& tactic, TacticOperation op);

  /// Rendered per-tactic/per-operation table plus the counter series.
  std::string report() const;

  /// Clears the latency series and the counters.
  void reset();

 private:
  PerfSeries& series(const std::string& tactic, TacticOperation op);

  mutable std::mutex mutex_;
  // unique_ptr: PerfSeries addresses must survive map rehash/rebalance so
  // handle() pointers stay valid.
  std::map<std::pair<std::string, TacticOperation>, std::unique_ptr<PerfSeries>> series_;
};

/// RAII recorder: times a scope and files it on destruction.
class ScopedPerf {
 public:
  ScopedPerf(PerfRegistry& registry, std::string tactic, TacticOperation op)
      : registry_(registry), tactic_(std::move(tactic)), op_(op),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedPerf() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    registry_.record(tactic_, op_, static_cast<std::uint64_t>(ns));
  }

  ScopedPerf(const ScopedPerf&) = delete;
  ScopedPerf& operator=(const ScopedPerf&) = delete;

 private:
  PerfRegistry& registry_;
  std::string tactic_;
  TacticOperation op_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace datablinder::core
