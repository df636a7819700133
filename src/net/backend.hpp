// Backend — the one way an RpcClient reaches the cloud.
//
// A backend takes one already-serialized request and returns the decoded
// response payload, re-throwing server-side errors typed. Three shapes
// implement it: a single Endpoint (one server behind one channel), a
// ReplicaGroup (N replicas with replication, failover and hedged reads)
// and a ShardRouter (N groups behind a consistent-hash ring). RpcClient
// layers deferred batching and the retry loop on top without knowing
// which shape it talks to.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/bytes.hpp"
#include "common/counters.hpp"

namespace datablinder::net {

/// Where a net layer counts its events: a Counters pointer and the lock
/// that guards it. RpcClient, ReplicaGroup and ShardRouter each hold one.
/// Events are counted while the lock is held, so bind(nullptr) returns only
/// once no event is still being counted into the old sink: the owner may
/// destroy its Counters right after unbinding, even while a hedge loser is
/// still finishing on a replica group's pool.
class CounterBinding {
 public:
  /// Binds `counters` (nullptr unbinds). With a non-empty `alias`, every
  /// event is also counted under alias + its name without the "net."
  /// prefix: the shard router's per-shard "net.shard.<i>." copies.
  void bind(Counters* counters, std::string alias = {}) {
    std::lock_guard lock(mutex_);
    counters_ = counters;
    alias_ = std::move(alias);
  }

  void incr(const char* series, std::uint64_t value = 1) const {
    std::lock_guard lock(mutex_);
    if (counters_ == nullptr) return;
    std::string name(series);
    counters_->incr(name, value);
    if (alias_.empty()) return;
    if (name.rfind("net.", 0) == 0) name.erase(0, 4);
    counters_->incr(alias_ + name, value);
  }

 private:
  mutable std::mutex mutex_;
  Counters* counters_ = nullptr;
  std::string alias_;
};

class Backend {
 public:
  using MethodPredicate = std::function<bool(const std::string& method)>;

  virtual ~Backend() = default;

  /// One routed exchange of `wire_request` (serialized Request bytes).
  /// Transport failures surface as Error(kUnavailable); the caller's retry
  /// loop may re-send the same bytes.
  virtual Bytes call(const std::string& method, const Bytes& wire_request) = 0;

  /// Binds the sink for the routing layer's counter events ("net.hedge.*",
  /// "net.replica.*", "net.shard.*"); nullptr unbinds (see CounterBinding).
  virtual void set_counters(Counters* counters) = 0;

  /// Methods that may be re-sent after their request leg shipped (hedges,
  /// post-send read failover). Installed from the client's RetryPolicy
  /// whitelist; nullptr means nothing is re-sendable.
  virtual void set_hedgeable(MethodPredicate pred) = 0;
};

}  // namespace datablinder::net
