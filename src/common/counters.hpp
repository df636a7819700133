// Counters — the one sink for named event counts.
//
// Event series that are counts rather than latencies: retry attempts,
// hedges, replica failovers, shard scatters, journal resumes, crypto routes
// ("net.retry.*", "net.hedge.*", "net.replica.*", "net.shard.*",
// "core.journal.*", "core.crypto.*").
// core::PerfRegistry is a Counters, so one registry snapshot covers the
// whole middleware; the net layers count into whichever Counters their
// owner binds with Backend::set_counters.
//
// Concurrency contract: every member serializes on one mutex.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace datablinder {

class Counters {
 public:
  void incr(const std::string& series, std::uint64_t delta = 1);
  std::uint64_t counter(const std::string& series) const;
  /// Consistent copy of every series.
  std::map<std::string, std::uint64_t> counters() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace datablinder
