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
#include <string>

#include "common/bytes.hpp"

namespace datablinder::net {

class Backend {
 public:
  using MetricsHook = std::function<void(const char* series, std::uint64_t value)>;
  using MethodPredicate = std::function<bool(const std::string& method)>;

  virtual ~Backend() = default;

  /// One routed exchange of `wire_request` (serialized Request bytes).
  /// Transport failures surface as Error(kUnavailable); the caller's retry
  /// loop may re-send the same bytes.
  virtual Bytes call(const std::string& method, const Bytes& wire_request) = 0;

  /// Counter events of the routing layer ("net.hedge.*", "net.replica.*",
  /// "net.shard.*"). Pass nullptr to clear.
  virtual void set_metrics_hook(MetricsHook hook) = 0;

  /// Methods that may be re-sent after their request leg shipped (hedges,
  /// post-send read failover). Installed from the client's RetryPolicy
  /// whitelist; nullptr means nothing is re-sendable.
  virtual void set_hedgeable(MethodPredicate pred) = 0;
};

}  // namespace datablinder::net
