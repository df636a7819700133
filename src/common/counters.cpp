#include "common/counters.hpp"

namespace datablinder {

void Counters::incr(const std::string& series, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  counters_[series] += delta;
}

std::uint64_t Counters::counter(const std::string& series) const {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(series);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> Counters::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void Counters::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
}

}  // namespace datablinder
