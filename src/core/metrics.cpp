#include "core/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace datablinder::core {

PerfSeries& PerfRegistry::series(const std::string& tactic, TacticOperation op) {
  std::lock_guard lock(mutex_);
  auto& slot = series_[{tactic, op}];
  if (!slot) slot = std::make_unique<PerfSeries>();
  return *slot;
}

void PerfRegistry::record(const std::string& tactic, TacticOperation op,
                          std::uint64_t ns) {
  series(tactic, op).observe(ns);
}

const PerfSeries* PerfRegistry::handle(const std::string& tactic, TacticOperation op) {
  return &series(tactic, op);
}

std::map<std::pair<std::string, TacticOperation>, OpStats> PerfRegistry::snapshot()
    const {
  std::map<std::pair<std::string, TacticOperation>, OpStats> out;
  std::lock_guard lock(mutex_);
  for (const auto& [key, s] : series_) out.emplace(key, s->stats());
  return out;
}

OpStats PerfRegistry::stats(const std::string& tactic, TacticOperation op) const {
  std::lock_guard lock(mutex_);
  auto it = series_.find({tactic, op});
  return it == series_.end() ? OpStats{} : it->second->stats();
}

std::string PerfRegistry::report() const {
  const auto snap = snapshot();
  std::ostringstream out;
  out << "tactic       operation         count    mean/us    ewma/us     p50/us     p95/us     max/us\n";
  char line[192];
  for (const auto& [key, s] : snap) {
    std::snprintf(line, sizeof(line),
                  "%-12s %-16s %7llu %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                  key.first.c_str(), to_string(key.second).c_str(),
                  static_cast<unsigned long long>(s.count), s.mean_us(), s.ewma_us,
                  s.p50_us, s.p95_us, static_cast<double>(s.max_ns) / 1e3);
    out << line;
  }
  const auto counts = counters();
  if (!counts.empty()) {
    out << "counter                              total\n";
    for (const auto& [name, value] : counts) {
      std::snprintf(line, sizeof(line), "%-28s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << line;
    }
  }
  return out.str();
}

void PerfRegistry::reset() {
  {
    std::lock_guard lock(mutex_);
    series_.clear();  // invalidates handles; callers re-resolve after reset
  }
  Counters::reset();
}

}  // namespace datablinder::core
