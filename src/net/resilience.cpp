#include "net/resilience.hpp"

#include <chrono>
#include <thread>

namespace datablinder::net {

namespace {
class SystemClock final : public RetryClock {
 public:
  std::uint64_t now_us() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void sleep_us(std::uint64_t us) override {
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
};
}  // namespace

RetryClock& RetryClock::system() {
  static SystemClock clock;
  return clock;
}

RetryPolicy RetryPolicy::standard() {
  RetryPolicy p;
  p.enabled = true;
  p.retryable_methods = {
      // Reads: no server-side state change.
      "doc.get", "doc.mget", "doc.list", "det.search", "ope.range", "ope.extreme",
      "ore.range", "mitra.search", "mitrasl.search", "mitrasl.get_counter",
      "sophos.search", "iex.search", "zmf.search", "agg.sum", "admin.storage",
      "admin.index_ops", "admin.digest", "plain.get", "plain.find_eq",
      "plain.find_range", "plain.find_bool", "plain.avg",
      // Updates whose handlers are keyed overwrites (sadd / zadd / hset /
      // dict.put): a byte-identical replay re-writes the same key with the
      // same value, so at-least-once delivery yields exactly-once state.
      "doc.put", "doc.del", "det.insert", "det.remove", "ope.insert", "ope.remove",
      "ore.insert", "ore.remove", "mitra.update", "mitrasl.update", "sophos.update",
      "iex.update", "zmf.update", "agg.insert", "agg.remove", "plain.put",
      "plain.del", "plain.index",
      // Setup methods re-derive the same provisioning from recovered keys.
      "sophos.setup", "zmf.setup", "agg.setup",
      // The deferred-batch envelope only ever carries methods from the
      // update group above.
      "rpc.batch"};
  return p;
}

void CircuitBreaker::configure(const BreakerConfig& config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

bool CircuitBreaker::enabled() const {
  std::lock_guard lock(mutex_);
  return config_.enabled;
}

bool CircuitBreaker::try_admit(std::uint64_t now_us) {
  std::lock_guard lock(mutex_);
  if (!config_.enabled) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_us - opened_at_us_ >= config_.open_cooldown_us) {
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        probe_started_us_ = now_us;
        return true;  // this caller is the probe
      }
      return false;
    case State::kHalfOpen:
      // Exactly one probe token per half-open window. If the token's owner
      // vanished without reporting (see rpc.cpp's catch-all), reclaim it
      // after a full cooldown so the breaker cannot wedge in half-open.
      if (probe_in_flight_ && now_us - probe_started_us_ >= config_.open_cooldown_us) {
        probe_in_flight_ = false;
      }
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        probe_started_us_ = now_us;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::on_success() {
  std::lock_guard lock(mutex_);
  if (!config_.enabled) return;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  state_ = State::kClosed;
}

void CircuitBreaker::on_failure(std::uint64_t now_us) {
  std::lock_guard lock(mutex_);
  if (!config_.enabled) return;
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen) {
    // Failed probe: straight back to open, restarting the cooldown.
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    return;
  }
  if (++consecutive_failures_ >= config_.failure_threshold &&
      state_ == State::kClosed) {
    state_ = State::kOpen;
    opened_at_us_ = now_us;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

std::string to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half-open";
  }
  return "?";
}

}  // namespace datablinder::net
