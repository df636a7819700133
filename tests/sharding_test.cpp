// ShardedCloud integration tests: the fidelity contract (1-shard config is
// byte-identical to the non-sharded stack), result identity between sharded
// and single-node gateways for every tactic family, real data distribution
// across shards, and per-shard failover isolation under chaos.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "fhir/observation.hpp"
#include "kms/key_manager.hpp"
#include "net/channel.hpp"
#include "net/rpc.hpp"
#include "store/kvstore.hpp"

namespace datablinder {
namespace {

using doc::Document;
using doc::Value;

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

core::GatewayConfig sharded_config(std::size_t shards, std::size_t replicas = 1) {
  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.shards = shards;
  cfg.replicas = replicas;
  return cfg;
}

/// One full client stack (cloud + gateway) at a given shard count, loaded
/// with a deterministic corpus so different shard counts are comparable.
struct Stack {
  explicit Stack(std::size_t shards, std::size_t replicas = 1)
      : cloud(sharded_config(shards, replicas)),
        gateway(cloud.client(), kms, local, registry(),
                sharded_config(shards, replicas)) {
    gateway.register_schema(fhir::observation_schema("observations"));
  }

  void load(std::size_t docs) {
    fhir::ObservationGenerator gen(1234);  // same seed on every stack
    for (std::size_t i = 0; i < docs; ++i) {
      Document d = gen.next();
      d.id = "obs-" + std::to_string(i);
      gateway.insert("observations", d);
    }
  }

  core::ShardedCloud cloud;
  kms::KeyManager kms;
  store::KvStore local;
  core::Gateway gateway;
};

std::vector<std::string> ids_of(const std::vector<Document>& docs) {
  std::vector<std::string> ids;
  ids.reserve(docs.size());
  for (const auto& d : docs) ids.push_back(d.id);
  return ids;
}

TEST(ShardingTest, ResultsIdenticalAcrossShardCounts) {
  // The §5.1 schema exercises every tactic family: BIEX-2Lev boolean,
  // Mitra equality, DET+OPE range, RND, Paillier aggregate. Whatever the
  // shard count, a gateway must return identical results in identical
  // order — sharding is a deployment knob, not a semantics change.
  Stack one(1), four(4), five(5);
  one.load(40);
  four.load(40);
  five.load(40);

  fhir::ObservationGenerator qgen(77);
  for (int q = 0; q < 8; ++q) {
    const Value subject = qgen.random_subject();
    EXPECT_EQ(ids_of(one.gateway.equality_search("observations", "subject", subject)),
              ids_of(four.gateway.equality_search("observations", "subject", subject)));
    EXPECT_EQ(ids_of(one.gateway.equality_search("observations", "subject", subject)),
              ids_of(five.gateway.equality_search("observations", "subject", subject)));

    core::FieldBoolQuery bq;
    bq.dnf.push_back({{"status", qgen.random_status()}, {"code", qgen.random_code()}});
    EXPECT_EQ(ids_of(one.gateway.boolean_search("observations", bq)),
              ids_of(four.gateway.boolean_search("observations", bq)));

    const auto [lo, hi] = qgen.random_effective_range();
    EXPECT_EQ(ids_of(one.gateway.range_search("observations", "effective", lo, hi)),
              ids_of(four.gateway.range_search("observations", "effective", lo, hi)));
  }

  // Point reads round-trip the same payload everywhere.
  for (int i = 0; i < 40; i += 7) {
    const std::string id = "obs-" + std::to_string(i);
    const Document a = one.gateway.read("observations", id);
    const Document b = four.gateway.read("observations", id);
    EXPECT_EQ(a.at("subject").as_string(), b.at("subject").as_string());
    EXPECT_EQ(a.at("value").as_double(), b.at("value").as_double());
  }

  // Paillier partials multiply homomorphically at the router: the global
  // average is exact, not approximate.
  const double avg1 =
      one.gateway.aggregate("observations", "value", schema::Aggregate::kAverage).value;
  const double avg4 =
      four.gateway.aggregate("observations", "value", schema::Aggregate::kAverage).value;
  const double avg5 =
      five.gateway.aggregate("observations", "value", schema::Aggregate::kAverage).value;
  EXPECT_DOUBLE_EQ(avg1, avg4);
  EXPECT_DOUBLE_EQ(avg1, avg5);
}

TEST(ShardingTest, DataActuallySpreadsAcrossShards) {
  Stack four(4);
  four.load(48);
  for (std::size_t s = 0; s < four.cloud.shard_count(); ++s) {
    EXPECT_GT(four.cloud.node(s).storage_bytes(), 0u) << "shard " << s << " empty";
  }
}

TEST(ShardingTest, OneShardConfigByteIdenticalToPlainStack) {
  // Fidelity contract, tier 1: shards = 1 / replicas = 1 / no hedging must
  // not merely behave like the pre-sharding build — it must BE it on the
  // wire, byte for byte and round trip for round trip.
  core::ShardedCloud sharded(sharded_config(1));
  ASSERT_EQ(sharded.router(), nullptr);

  core::CloudNode plain_node;
  net::Channel plain_channel;
  net::RpcClient plain_client(plain_node.rpc(), plain_channel);

  auto drive = [](net::RpcClient& c) {
    for (int i = 0; i < 10; ++i) {
      c.call("doc.put", core::wire::pack({{"col", Value("c")},
                                          {"id", Value("d-" + std::to_string(i))},
                                          {"blob", Value(Bytes(64, 7))}}));
    }
    c.call("doc.get", core::wire::pack({{"col", Value("c")}, {"id", Value("d-3")}}));
    c.call("doc.list", core::wire::pack({{"col", Value("c")}}));
  };
  drive(sharded.client());
  drive(plain_client);

  const auto& s = sharded.channel(0).stats();
  const auto& p = plain_channel.stats();
  EXPECT_EQ(s.bytes_sent.load(), p.bytes_sent.load());
  EXPECT_EQ(s.bytes_received.load(), p.bytes_received.load());
  EXPECT_EQ(s.round_trips.load(), p.round_trips.load());
}

TEST(ShardingTest, DetSearchCostsOneLabelLookupPlusOneMgetPerOwningShard) {
  // Sharded search cost: the DET label routes to ONE shard, and the
  // router splits the candidate doc.mget into one sub-call per shard that
  // owns a result, so the search costs 1 + |owning shards| round trips
  // summed over every shard channel.
  core::GatewayConfig cfg = sharded_config(4);
  core::ShardedCloud cloud(cfg);
  kms::KeyManager kms;
  store::KvStore local;
  core::Gateway gw(cloud.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(5);
  Value status;
  for (int i = 0; i < 48; ++i) {
    Document d = gen.next();
    d.id = "b-" + std::to_string(i);
    if (i == 0) status = d.at("status");
    gw.insert("obs", d);
  }

  auto round_trips = [&cloud] {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < cloud.shard_count(); ++s) {
      n += cloud.channel(s).stats().round_trips.load();
    }
    return n;
  };
  const std::uint64_t trips_before = round_trips();
  const std::uint64_t scatters_before = gw.perf().counter("net.shard.scatter");
  const std::uint64_t subcalls_before = gw.perf().counter("net.shard.subcalls");

  const std::vector<Document> docs = gw.equality_search("obs", "status", status);

  std::set<std::size_t> owners;
  for (const auto& d : docs) owners.insert(cloud.router()->shard_of_doc("obs", d.id));
  ASSERT_GE(owners.size(), 2u) << "corpus too small to scatter the doc.mget";
  EXPECT_EQ(round_trips() - trips_before, 1 + owners.size());
  EXPECT_EQ(gw.perf().counter("net.shard.scatter") - scatters_before, 1u);
  EXPECT_EQ(gw.perf().counter("net.shard.subcalls") - subcalls_before, owners.size());
}

TEST(ShardingTest, ShardPrimaryFailoverDoesNotStallSiblings) {
  // Chaos: 3 shards x 3 replicas; kill shard 0's primary channel
  // mid-workload. Reads and writes owned by shard 0 fail over inside its
  // ReplicaGroup; the other shards never see a failover event.
  core::GatewayConfig cfg = sharded_config(3, 3);
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 42;

  core::ShardedCloud cloud(cfg);
  kms::KeyManager kms;
  store::KvStore local;
  core::Gateway gw(cloud.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::observation_schema("observations"));

  fhir::ObservationGenerator gen(9);
  for (int i = 0; i < 24; ++i) {
    Document d = gen.next();
    d.id = "c-" + std::to_string(i);
    gw.insert("observations", d);
  }

  cloud.channel(0, 0).close();  // shard 0 loses its primary

  // Every document stays readable and writable, whichever shard owns it.
  fhir::ObservationGenerator gen2(10);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(gw.read("observations", "c-" + std::to_string(i)).id,
              "c-" + std::to_string(i));
  }
  for (int i = 24; i < 36; ++i) {
    Document d = gen2.next();
    d.id = "c-" + std::to_string(i);
    gw.insert("observations", d);
    EXPECT_EQ(gw.read("observations", "c-" + std::to_string(i)).id,
              "c-" + std::to_string(i));
  }

  // The failover happened, and it happened ONLY on shard 0: the instance
  // labels prove the siblings kept serving undisturbed.
  const auto& perf = gw.perf();
  EXPECT_GE(perf.counter("net.replica.failover") +
                perf.counter("net.replica.read_failover"),
            1u);
  EXPECT_GE(perf.counter("net.shard.0.replica.failover") +
                perf.counter("net.shard.0.replica.read_failover"),
            1u);
  for (std::size_t s = 1; s < 3; ++s) {
    const std::string prefix = "net.shard." + std::to_string(s) + ".";
    EXPECT_EQ(perf.counter(prefix + "replica.failover"), 0u);
    EXPECT_EQ(perf.counter(prefix + "replica.read_failover"), 0u);
  }
}

/// A 2-shard x 2-replica cloud whose reads hedge and whose client retries.
core::GatewayConfig hedged_retrying_config() {
  core::GatewayConfig cfg = sharded_config(2, 2);
  cfg.hedge.enabled = true;
  cfg.hedge.min_delay_us = 300;
  cfg.hedge.max_delay_us = 2000;
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 5;
  return cfg;
}

/// Drives one event of every net family through `cloud`'s client: a routed
/// write and a scatter read (net.shard.*), a read hedged because both
/// replicas of its shard are slow (net.hedge.*), and a read of a shard
/// that is down (net.retry.*, net.replica.*).
void drive_net_events(core::ShardedCloud& cloud) {
  net::RpcClient& client = cloud.client();
  client.set_retry_policy(hedged_retrying_config().retry);
  doc::Array ids;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "e-" + std::to_string(i);
    client.call("doc.put", core::wire::pack({{"col", Value("obs")},
                                             {"id", Value(id)},
                                             {"blob", Value(Bytes{1})}}));
    ids.push_back(Value(id));
  }
  client.call("doc.mget",
              core::wire::pack({{"col", Value("obs")}, {"ids", Value(ids)}}));

  const std::size_t s = cloud.router()->shard_of_doc("obs", "e-0");
  const Bytes get = core::wire::pack({{"col", Value("obs")}, {"id", Value("e-0")}});
  net::ChannelConfig slow;
  slow.one_way_latency_us = 20000;  // 40 ms round trips; the hedge fires by 2 ms
  cloud.channel(s, 0).set_config(slow);
  cloud.channel(s, 1).set_config(slow);
  client.call("doc.get", get);
  cloud.channel(s, 0).set_config({});
  cloud.channel(s, 1).set_config({});

  cloud.channel(s, 0).close();
  cloud.channel(s, 1).close();
  EXPECT_THROW(client.call("doc.get", get), Error);
}

TEST(ShardingTest, BoundCountersSeeEveryNetEventFamily) {
  Counters counters;  // outlives the cloud, whose pools join hedge losers
  core::ShardedCloud cloud(hedged_retrying_config());
  cloud.client().set_counters(&counters);
  drive_net_events(cloud);

  EXPECT_GE(counters.counter("net.shard.route"), 1u);
  EXPECT_GE(counters.counter("net.shard.scatter"), 1u);
  EXPECT_GE(counters.counter("net.hedge.fired"), 1u);
  EXPECT_GE(counters.counter("net.retry.attempt"), 1u);
  // Every group event is also counted once under its shard's alias.
  const std::size_t s = cloud.router()->shard_of_doc("obs", "e-0");
  EXPECT_GE(counters.counter("net.shard." + std::to_string(s) + ".hedge.fired"), 1u);
  EXPECT_EQ(counters.counter("net.shard.0.hedge.fired") +
                counters.counter("net.shard.1.hedge.fired"),
            counters.counter("net.hedge.fired"));
}

TEST(ShardingTest, UnboundCountersSeeNoNetEvent) {
  // set_counters(nullptr) unbinds the client, the router and every group:
  // the same retries, hedges and shard calls are dropped, not counted.
  Counters counters;
  core::ShardedCloud cloud(hedged_retrying_config());
  cloud.client().set_counters(&counters);
  cloud.client().set_counters(nullptr);
  drive_net_events(cloud);
  EXPECT_TRUE(counters.counters().empty());
}

TEST(ShardingTest, DestroyedGatewayIsNeverCountedInto) {
  // The gateway binds its registry on construction and unbinds it on
  // destruction. Traffic on the surviving cloud must not reach the freed
  // registry (a heap-use-after-free under ASan).
  const core::GatewayConfig cfg = hedged_retrying_config();
  core::ShardedCloud cloud(cfg);
  kms::KeyManager kms;
  store::KvStore local;
  auto gw = std::make_unique<core::Gateway>(cloud.client(), kms, local, registry(), cfg);
  gw->register_schema(fhir::observation_schema("observations"));
  fhir::ObservationGenerator gen(3);
  gw->insert("observations", gen.next());
  EXPECT_GE(gw->perf().counter("net.shard.route"), 1u);
  gw.reset();
  drive_net_events(cloud);
}

}  // namespace
}  // namespace datablinder
