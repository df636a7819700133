// ShardedCloud — the untrusted zone as N shards × R replicas, and the one
// builder of every cloud shape the Gateway binds to.
//
// Each shard is a replica set: its own CloudNodes behind independently
// faultable Channels, assembled into a net::ReplicaGroup. The shards sit
// behind one net::ShardRouter. Whatever the shape, the Gateway gets one
// RpcClient over one net::Backend and binds to it exactly like a
// single-node client. Resilience (hedged reads on the group's own pool,
// failure accrual, byte-exact replication, catch-up) applies PER SHARD —
// one shard's primary failover never stalls its siblings.
//
// Fidelity ladder:
//   * shards = 1, replicas = 1, hedging off — no group, no router:
//     the plain single-endpoint RpcClient, byte-identical on the wire to
//     a hand-assembled single-node stack.
//   * shards = 1 otherwise — one replica set: the client's backend is the
//     shard's ReplicaGroup.
//   * shards > 1 — every shard gets a ReplicaGroup (even at replicas = 1:
//     the router's contract is "each backend dedups byte-identical
//     replays", which the group's log provides) and the client's backend
//     is the ShardRouter.
#pragma once

#include <memory>
#include <vector>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "net/channel.hpp"
#include "net/replica_group.hpp"
#include "net/rpc.hpp"
#include "net/shard_router.hpp"

namespace datablinder::core {

class ShardedCloud {
 public:
  /// Builds config.shards shard groups (minimum 1) of config.replicas
  /// nodes each (minimum 1), every channel starting from `channel_config`.
  explicit ShardedCloud(const GatewayConfig& config = {},
                        net::ChannelConfig channel_config = {});

  /// The client the Gateway should be constructed over.
  net::RpcClient& client() noexcept { return *client_; }

  /// The shard router, or nullptr when shards = 1 (no routing layer).
  net::ShardRouter* router() noexcept { return router_.get(); }

  /// Replica group of shard s, or nullptr in the plain shape.
  net::ReplicaGroup* group(std::size_t s) noexcept {
    return shards_[s].group.get();
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t replicas_per_shard() const noexcept {
    return shards_[0].nodes.size();
  }

  CloudNode& node(std::size_t shard, std::size_t replica = 0) {
    return *shards_[shard].nodes[replica];
  }
  net::Channel& channel(std::size_t shard, std::size_t replica = 0) {
    return *shards_[shard].channels[replica];
  }

  /// Replays missing log suffixes on every shard's reachable replicas;
  /// returns replicas fully in sync, summed across shards.
  std::size_t catch_up();

  /// Cluster-wide counters summed across every node of every shard (the
  /// bench/observability view a single CloudNode used to provide).
  std::uint64_t index_ops() const;
  std::size_t storage_bytes() const;

 private:
  struct Shard {
    std::vector<std::unique_ptr<CloudNode>> nodes;
    std::vector<std::unique_ptr<net::Channel>> channels;
    std::unique_ptr<net::ReplicaGroup> group;
  };

  std::vector<Shard> shards_;
  std::unique_ptr<net::ShardRouter> router_;  // before client_: client holds it
  std::unique_ptr<net::RpcClient> client_;
};

}  // namespace datablinder::core
