// ShardRouter unit tests: ring determinism and minimal movement under
// resize, routing-table correctness, batch splitting, and the placement
// non-leakage contract (no routing metadata on the wire).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/sharding.hpp"
#include "core/wire.hpp"
#include "net/channel.hpp"
#include "net/methods.hpp"
#include "net/rpc.hpp"
#include "net/shard_router.hpp"

namespace datablinder::net {
namespace {

using doc::Value;

TEST(HashRingTest, DeterministicAcrossInstances) {
  const HashRing a(4), b(4);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "doc/obs/key-" + std::to_string(i);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
  }
}

TEST(HashRingTest, SeedChangesPlacement) {
  RingConfig other;
  other.seed = 12345;
  const HashRing a(8), b(8, other);
  int moved = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    if (a.shard_of(key) != b.shard_of(key)) ++moved;
  }
  // A different seed is a different ring: most keys should relocate.
  EXPECT_GT(moved, 1000);
}

TEST(HashRingTest, SpreadsKeysAcrossAllShards) {
  const HashRing ring(8);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[ring.shard_of("doc/obs/id-" + std::to_string(i))];
  }
  for (int s = 0; s < 8; ++s) {
    // Every shard owns a meaningful slice (expected 1000 +- imbalance).
    EXPECT_GT(counts[s], 300) << "shard " << s << " nearly empty";
  }
}

TEST(HashRingTest, ResizeMovesBoundedFraction) {
  const std::size_t kKeys = 10000;
  const HashRing before(4), after(5);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = "doc/obs/key-" + std::to_string(i);
    if (before.shard_of(key) != after.shard_of(key)) ++moved;
  }
  // Consistent hashing: going 4 -> 5 shards should move ~K/5 of the keys;
  // allow 2x slack for virtual-node imbalance. A modulo-partitioner would
  // move ~80% and fail this hard.
  EXPECT_LT(moved, 2 * kKeys / 5);
  EXPECT_GT(moved, 0u);
}

TEST(ShardRouterTest, DocRoutingAgreesWithRing) {
  core::GatewayConfig cfg;
  cfg.shards = 4;
  core::ShardedCloud cloud(cfg);
  ShardRouter* router = cloud.router();
  ASSERT_NE(router, nullptr);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "id-" + std::to_string(i);
    EXPECT_EQ(router->shard_of_doc("obs", id),
              router->ring().shard_of(ShardRouter::doc_key("obs", id)));
  }
}

TEST(ShardRouterTest, PutLandsOnExactlyOneShardWithNoRoutingMetadata) {
  core::GatewayConfig cfg;
  cfg.shards = 4;
  core::ShardedCloud cloud(cfg);

  // Reference: the identical request against a plain single node measures
  // what the wire bytes SHOULD be.
  core::CloudNode ref_node;
  Channel ref_channel;
  RpcClient ref_client(ref_node.rpc(), ref_channel);

  const Bytes payload = core::wire::pack(
      {{"col", Value("obs")}, {"id", Value("doc-42")}, {"blob", Value(Bytes{1, 2, 3})}});
  cloud.client().call("doc.put", payload);
  ref_client.call("doc.put", payload);

  std::size_t shards_touched = 0;
  for (std::size_t s = 0; s < cloud.shard_count(); ++s) {
    const auto sent = cloud.channel(s).stats().bytes_sent.load();
    if (sent == 0) continue;
    ++shards_touched;
    // Placement non-leakage: the one routed request is byte-for-byte the
    // size a single-node deployment would send — no shard index, ring
    // point, or any other routing metadata rides along.
    EXPECT_EQ(sent, ref_channel.stats().bytes_sent.load());
  }
  EXPECT_EQ(shards_touched, 1u);

  // And the document is readable back through the router.
  const Bytes reply = cloud.client().call(
      "doc.get", core::wire::pack({{"col", Value("obs")}, {"id", Value("doc-42")}}));
  EXPECT_EQ(core::wire::get_bin(core::wire::unpack(reply), "blob"), (Bytes{1, 2, 3}));
}

TEST(ShardRouterTest, MgetScattersAndMergesInRequestOrder) {
  core::GatewayConfig cfg;
  cfg.shards = 4;
  core::ShardedCloud cloud(cfg);
  // Reference: a single node holding the same documents answers the same
  // request; the router's merge must be byte-identical to its reply.
  core::CloudNode ref_node;
  Channel ref_channel;
  RpcClient ref_client(ref_node.rpc(), ref_channel);

  std::vector<std::string> ids;
  std::set<std::size_t> owners;
  for (int i = 0; i < 32; ++i) {
    const std::string id = "m-" + std::to_string(i);
    ids.push_back(id);
    owners.insert(cloud.router()->shard_of_doc("obs", id));
    const Bytes put = core::wire::pack(
        {{"col", Value("obs")},
         {"id", Value(id)},
         {"blob", Value(Bytes(static_cast<std::size_t>(1 + i % 5), static_cast<std::uint8_t>(i)))}});
    cloud.client().call("doc.put", put);
    ref_client.call("doc.put", put);
  }
  ASSERT_GT(owners.size(), 1u) << "test ids all hashed to one shard";

  doc::Array id_arr;
  for (const auto& id : ids) id_arr.emplace_back(id);
  // Ask for the ids interleaved with a vanished one: reply must preserve
  // request order and skip the missing id, exactly like a single node.
  id_arr.insert(id_arr.begin() + 7, Value(std::string("never-inserted")));
  const Bytes request =
      core::wire::pack({{"col", Value("obs")}, {"ids", Value(std::move(id_arr))}});
  const Bytes reply = cloud.client().call("doc.mget", request);
  EXPECT_EQ(reply, ref_client.call("doc.mget", request));
  std::size_t i = 0;
  doc::wire::for_each_doc(reply, [&](std::string_view id, BytesView blob) {
    ASSERT_LT(i, ids.size());
    EXPECT_EQ(id, ids[i]);
    EXPECT_EQ(Bytes(blob.begin(), blob.end()),
              Bytes(1 + i % 5, static_cast<std::uint8_t>(i)));
    ++i;
  });
  EXPECT_EQ(i, ids.size());
}

TEST(ShardRouterTest, BatchSplitsPerShardAndReassemblesInOrder) {
  core::GatewayConfig cfg;
  cfg.shards = 3;
  core::ShardedCloud cloud(cfg);
  RpcClient& client = cloud.client();

  const std::vector<Request> queued = client.capture([&] {
    for (int i = 0; i < 12; ++i) {
      client.call("doc.put",
                  core::wire::pack({{"col", Value("obs")},
                                    {"id", Value("b-" + std::to_string(i))},
                                    {"blob", Value(Bytes{static_cast<std::uint8_t>(i)})}}));
    }
  });
  EXPECT_EQ(client.send_batch(queued), 12u);

  for (int i = 0; i < 12; ++i) {
    const Bytes reply = client.call(
        "doc.get", core::wire::pack({{"col", Value("obs")},
                                     {"id", Value("b-" + std::to_string(i))}}));
    EXPECT_EQ(core::wire::get_bin(core::wire::unpack(reply), "blob"),
              Bytes{static_cast<std::uint8_t>(i)});
  }
}

TEST(ShardRouterTest, BroadcastListConcatenatesAllShards) {
  core::GatewayConfig cfg;
  cfg.shards = 4;
  core::ShardedCloud cloud(cfg);
  for (int i = 0; i < 20; ++i) {
    cloud.client().call("doc.put",
                        core::wire::pack({{"col", Value("obs")},
                                          {"id", Value("l-" + std::to_string(i))},
                                          {"blob", Value(Bytes{9})}}));
  }
  const Bytes reply =
      cloud.client().call("doc.list", core::wire::pack({{"col", Value("obs")}}));
  EXPECT_EQ(core::wire::get_arr(core::wire::unpack(reply), "ids").size(), 20u);
}

TEST(ShardRouterTest, EveryDeferrableMethodSplitsAcrossShards) {
  // One frame of every deferrable row of the method table, each carrying
  // every field a single-shard placement reads: the router must place all
  // of them (no kProtocolError) and deliver each exactly once.
  constexpr std::size_t kShards = 4;
  std::array<RpcServer, kShards> servers;
  std::array<Channel, kShards> channels;
  // Each shard's batch runs on one thread at a time, so per-shard logs
  // need no lock.
  std::array<std::vector<std::string>, kShards> received;
  std::vector<std::unique_ptr<ReplicaGroup>> groups;
  std::vector<ReplicaGroup*> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const MethodInfo& m : cloud_methods()) {
      const std::string name(m.name);
      if (m.kind == MethodKind::kBatch) continue;
      servers[s].register_method(name, [&received, s, name](BytesView) {
        received[s].push_back(name);
        return core::wire::pack({});
      });
    }
    servers[s].register_method("rpc.batch", RpcClient::make_batch_handler(servers[s]));
    groups.push_back(std::make_unique<ReplicaGroup>(
        std::vector<ReplicaEndpoint>{{&servers[s], &channels[s]}}));
    shards.push_back(groups.back().get());
  }
  ShardRouter router(shards);
  RpcClient client(router);

  const Bytes payload = core::wire::pack({{"col", Value("obs")},
                                          {"id", Value("row-1")},
                                          {"field", Value("f")},
                                          {"label", Value(Bytes{1, 2})},
                                          {"scope", Value("s")},
                                          {"address", Value(Bytes{3, 4})}});
  std::multiset<std::string> deferrable;
  for (const MethodInfo& m : cloud_methods()) {
    if (m.deferrable) deferrable.emplace(m.name);
  }
  const std::vector<Request> queued = client.capture([&] {
    for (const std::string& method : deferrable) client.call(method, payload);
  });
  ASSERT_NO_THROW(EXPECT_EQ(client.send_batch(queued), deferrable.size()));

  std::multiset<std::string> delivered;
  std::size_t shards_used = 0;
  for (const auto& names : received) {
    delivered.insert(names.begin(), names.end());
    if (!names.empty()) ++shards_used;
  }
  EXPECT_EQ(delivered, deferrable);
  EXPECT_GT(shards_used, 1u);
}

TEST(ShardRouterTest, UnroutableMethodThrowsProtocolError) {
  core::GatewayConfig cfg;
  cfg.shards = 2;
  core::ShardedCloud cloud(cfg);
  try {
    cloud.client().call("no.such_method", core::wire::pack({}));
    FAIL() << "expected kProtocolError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
  }
}

TEST(ShardRouterTest, PerShardMetricsAreInstanceLabeled) {
  core::GatewayConfig cfg;
  cfg.shards = 2;
  cfg.replicas = 2;  // replication makes each shard group emit ship events
  core::ShardedCloud cloud(cfg);

  Counters counters;
  cloud.router()->set_counters(&counters);

  cloud.client().call("doc.put",
                      core::wire::pack({{"col", Value("obs")},
                                        {"id", Value("x")},
                                        {"blob", Value(Bytes{1})}}));

  const auto series = counters.counters();
  // Router-level series for the routed single-shard call.
  EXPECT_EQ(series.count("net.shard.route"), 1u);
  // Group-level series keep the aggregate name AND gain exactly one
  // instance-labeled copy from the owning shard — never both shards.
  EXPECT_EQ(series.count("net.replica.ship"), 1u);
  const std::size_t labeled = series.count("net.shard.0.replica.ship") +
                              series.count("net.shard.1.replica.ship");
  EXPECT_EQ(labeled, 1u);
}

}  // namespace
}  // namespace datablinder::net
