// HotCache — the gateway's bounded, explicitly-invalidated hot-path cache.
//
// One cache per gateway, shared by the gateway's resolve stage (recently
// decrypted documents), the tactic kernels (SSE trapdoors, DET labels,
// OPE scores) and the public-key tactics (per-modulus Montgomery
// contexts). Three disciplines keep it safe:
//
//   * Wipe on eviction. Every byte value is held as a SecretBytes, so LRU
//     eviction, erase(), epoch invalidation and destruction all route
//     through the wiping allocator. dblint rule R10 (secret-cache) makes
//     this the ONLY container allowed to hold secret-derived cached values.
//   * Epoch invalidation. Entries may be tagged with an epoch domain
//     (per-collection); bump_epoch(domain) logically invalidates every
//     tagged entry at once — the gateway bumps on update/delete. Entries
//     without a domain are pure functions of key material (DET labels,
//     OPE scores) and survive data churn.
//   * Keyed invalidation. State-dependent trapdoors (Mitra: every update
//     of a keyword advances its counter) are erased precisely by the
//     tactic that advanced the state, via erase().
//
// Traffic counters (hits/misses/evictions/invalidations) are plain atomics
// for lock-free reads by the cost model, and are mirrored into the
// PerfRegistry as "core.cache.*" so one metrics snapshot shows cache
// effectiveness next to tactic latencies.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "bigint/montgomery.hpp"
#include "common/bytes.hpp"
#include "common/secret.hpp"

namespace datablinder::core {

class PerfRegistry;

class HotCache {
 public:
  struct Config {
    std::size_t capacity = 4096;  // entries, not bytes; 0 disables puts
  };

  HotCache(PerfRegistry* perf, Config config);
  explicit HotCache(PerfRegistry* perf = nullptr) : HotCache(perf, Config()) {}

  /// Inserts (or refreshes) `key`. `epoch_domain` tags the entry for bulk
  /// invalidation via bump_epoch(); empty means the value is a pure
  /// function of key material and never goes stale.
  void put(const std::string& key, BytesView value,
           const std::string& epoch_domain = std::string());

  /// Returns a copy of the cached value, or nullopt on miss / stale epoch.
  /// Stale entries are erased (and wiped) on the way out.
  std::optional<Bytes> get(const std::string& key);

  /// Precise invalidation for state-dependent entries (Mitra trapdoors).
  void erase(const std::string& key);

  /// Logically invalidates every entry tagged with `domain`. O(1): stale
  /// entries are reclaimed lazily on lookup or eviction.
  void bump_epoch(const std::string& domain);

  /// Shared Montgomery context for `modulus` — the per-modulus store the
  /// public-key tactics draw from, so two tactic instances over the same
  /// modulus share one precomputation. Contexts are public parameters
  /// (moduli are not secrets) and are never evicted: a gateway sees a
  /// handful of moduli over its lifetime.
  std::shared_ptr<const bigint::Montgomery> montgomery(const bigint::BigInt& modulus);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return config_.capacity; }

  // Lock-free traffic counters (the cost-model feedback path).
  std::uint64_t hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t invalidations() const noexcept {
    return invalidations_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses); 0 before any traffic.
  double hit_ratio() const noexcept;

 private:
  struct Entry {
    SecretBytes value;  // wiped on every exit path
    std::string domain;
    std::uint64_t epoch = 0;
    std::list<std::string>::iterator lru_it;
  };

  // All private helpers assume mutex_ is held.
  bool stale(const Entry& e) const;
  void erase_locked(std::unordered_map<std::string, Entry>::iterator it);
  void note(const char* series, std::atomic<std::uint64_t>& counter);

  Config config_;
  PerfRegistry* perf_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::map<std::string, std::uint64_t> epochs_;
  std::map<std::string, std::shared_ptr<const bigint::Montgomery>> montgomery_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace datablinder::core
