// Resilience primitives for the gateway<->cloud channel: a retry policy
// with exponential backoff, deadline budgets and an idempotency whitelist.
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
#include <set>
#include <string>

namespace datablinder::net {

/// Monotonic time source used by retry backoff and deadline budgets.
/// Injectable so tests can assert backoff schedules and deadlines against a
/// fake clock instead of sleeping for real.
class RetryClock {
 public:
  virtual ~RetryClock() = default;
  virtual std::uint64_t now_us() = 0;
  virtual void sleep_us(std::uint64_t us) = 0;

  /// Process-wide steady-clock implementation.
  static RetryClock& system();
};

/// Retry policy for RpcClient::call. The whitelist alone decides whether a
/// call retries: the default policy's is empty, so every call fails fast on
/// its first kUnavailable until a whitelist is installed.
struct RetryPolicy {
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

  /// Whitelist covering every row of the cloud-method table (net/methods),
  /// all of which are safe to replay: reads trivially, updates because
  /// their cloud handlers are keyed overwrites that absorb byte-identical
  /// replay (see file comment), setups because they re-derive the same
  /// provisioning, and "rpc.batch" because it only carries such updates.
  static RetryPolicy standard();
};

}  // namespace datablinder::net
