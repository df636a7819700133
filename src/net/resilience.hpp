// Resilience primitives for the gateway<->cloud channel: retry policy with
// exponential backoff and deadline budgets, an idempotency whitelist, and a
// per-channel circuit breaker.
//
// The paper deploys the gateway in a trusted private zone talking to an
// untrusted public cloud (§4), so every SE tactic round trip crosses a WAN
// that can and will fail. The RPC client retries only calls that are safe
// to replay: reads always, index-update methods because a retry re-sends
// the SAME serialized request bytes (byte-identical replay), and every
// built-in update lands in a keyed overwrite cloud-side (dict.put / sadd /
// zadd / hset), so re-application is a no-op. Replaying recorded bytes —
// never re-encrypting — also keeps the leakage profile unchanged: the
// adversary sees a duplicate of a ciphertext it already had, not a second
// fresh encryption of the same plaintext.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>

namespace datablinder::net {

/// Monotonic time source used by retry backoff and the circuit breaker.
/// Injectable so tests can assert backoff schedules and breaker cooldowns
/// against a fake clock instead of sleeping for real.
class RetryClock {
 public:
  virtual ~RetryClock() = default;
  virtual std::uint64_t now_us() = 0;
  virtual void sleep_us(std::uint64_t us) = 0;

  /// Process-wide steady-clock implementation.
  static RetryClock& system();
};

/// Retry policy for RpcClient::call. Disabled by default: the seed
/// behaviour (fail fast on the first kUnavailable) is preserved unless the
/// gateway opts in.
struct RetryPolicy {
  bool enabled = false;

  /// Total attempts including the first; >= 1.
  std::uint32_t max_attempts = 4;
  std::uint64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_us = 200000;
  /// Fraction of each backoff randomized away (jitter in [0, jitter]
  /// subtracted), de-synchronizing concurrent retry storms.
  double jitter = 0.2;
  /// Per-call wall-clock budget across all attempts; a retry whose backoff
  /// would overrun the budget is abandoned instead. 0 = unbounded.
  std::uint64_t deadline_us = 0;
  /// Seed for the jitter RNG; 0 draws from std::random_device. Fixed seeds
  /// make backoff schedules reproducible in tests.
  std::uint64_t jitter_seed = 0;

  /// Idempotency whitelist: only these methods are ever retried. Methods
  /// absent from it fail fast — the safe default for third-party tactic
  /// providers whose update handlers might not be replay-idempotent.
  std::set<std::string> retryable_methods;

  bool retryable(const std::string& method) const {
    return retryable_methods.count(method) > 0;
  }

  /// Whitelist covering every built-in method: reads trivially, update
  /// methods because their cloud handlers are keyed overwrites that absorb
  /// byte-identical replay (see file comment), and "rpc.batch" because the
  /// batch queue only ever carries such updates.
  static RetryPolicy standard();
};

/// Circuit-breaker tuning. Disabled by default.
struct BreakerConfig {
  bool enabled = false;
  /// Consecutive transport failures that trip the breaker open.
  std::uint32_t failure_threshold = 5;
  /// How long an open breaker rejects calls before admitting a half-open
  /// probe.
  std::uint64_t open_cooldown_us = 50000;
};

/// Per-channel circuit breaker: closed -> (threshold consecutive
/// kUnavailable) -> open -> (cooldown elapses) -> half-open, where exactly
/// one probe call is admitted; the probe's outcome closes or re-opens the
/// breaker. Open-state rejections fail fast without touching the channel,
/// shedding load from an endpoint that is already down.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  void configure(const BreakerConfig& config);
  bool enabled() const;

  /// Admission control. Returns false when the call must be rejected
  /// (breaker open, cooldown not elapsed). May transition open -> half-open
  /// when the cooldown has passed; the caller owning that admission is the
  /// probe.
  bool try_admit(std::uint64_t now_us);

  /// Outcome reporting for admitted calls. Only transport-level failures
  /// (kUnavailable) should be reported as failures; typed server errors are
  /// delivered responses and count as breaker successes.
  void on_success();
  void on_failure(std::uint64_t now_us);

  State state() const;

 private:
  mutable std::mutex mutex_;
  BreakerConfig config_;
  State state_ = State::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t opened_at_us_ = 0;
  bool probe_in_flight_ = false;
  // When the outstanding half-open probe was admitted. A probe whose owner
  // never reports an outcome (caller died between admission and reporting)
  // would otherwise hold the token forever; after a full cooldown the token
  // is reclaimed and a new probe admitted.
  std::uint64_t probe_started_us_ = 0;
};

std::string to_string(CircuitBreaker::State state);

}  // namespace datablinder::net
