#include "core/sharding.hpp"

#include <algorithm>

namespace datablinder::core {

ShardedCloud::ShardedCloud(const GatewayConfig& config,
                           net::ChannelConfig channel_config) {
  const std::size_t s = std::max<std::size_t>(1, config.shards);
  const std::size_t r = std::max<std::size_t>(1, config.replicas);

  shards_.resize(s);
  for (auto& shard : shards_) {
    shard.nodes.reserve(r);
    shard.channels.reserve(r);
    for (std::size_t i = 0; i < r; ++i) {
      shard.nodes.push_back(std::make_unique<CloudNode>());
      shard.channels.push_back(std::make_unique<net::Channel>(channel_config));
    }
  }

  if (s == 1 && r == 1 && !config.hedge.enabled) {
    // Plain shape: byte-identical to a hand-assembled single-node stack.
    client_ = std::make_unique<net::RpcClient>(shards_[0].nodes[0]->rpc(),
                                               *shards_[0].channels[0]);
    return;
  }

  for (auto& shard : shards_) {
    std::vector<net::ReplicaEndpoint> endpoints;
    endpoints.reserve(r);
    for (std::size_t i = 0; i < r; ++i) {
      endpoints.push_back({&shard.nodes[i]->rpc(), shard.channels[i].get()});
    }
    shard.group = std::make_unique<net::ReplicaGroup>(std::move(endpoints),
                                                      config.hedge, config.accrual);
  }

  if (s == 1) {
    // One replica set: the group is the client's backend.
    client_ = std::make_unique<net::RpcClient>(*shards_[0].group);
    return;
  }

  std::vector<net::ReplicaGroup*> groups;
  groups.reserve(s);
  for (auto& shard : shards_) groups.push_back(shard.group.get());
  router_ = std::make_unique<net::ShardRouter>(std::move(groups));
  client_ = std::make_unique<net::RpcClient>(*router_);
}

std::size_t ShardedCloud::catch_up() {
  std::size_t in_sync = 0;
  for (auto& shard : shards_) {
    in_sync += shard.group ? shard.group->catch_up_all() : shard.nodes.size();
  }
  return in_sync;
}

std::uint64_t ShardedCloud::index_ops() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& node : shard.nodes) total += node->index_ops();
  }
  return total;
}

std::size_t ShardedCloud::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& node : shard.nodes) total += node->storage_bytes();
  }
  return total;
}

}  // namespace datablinder::core
