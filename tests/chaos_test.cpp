// Deterministic chaos harness for the replicated cloud: scripted FaultPlans
// across independent replica channels, asserting the three group
// invariants under every scenario —
//   1. no acknowledged write is lost while any healthy replica remains,
//   2. no write is applied twice (byte-exact: each replica channel carried
//      exactly the log's wire bytes, and state digests converge),
//   3. reads keep succeeding while any healthy in-sync replica remains.
// Plus the fidelity contract: GatewayConfig{replicas = 1, hedge.enabled =
// false} is byte-identical on the wire to a hand-built single-node stack.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "fhir/observation.hpp"
#include "net/replica_group.hpp"

namespace datablinder {
namespace {

using core::ShardedCloud;
using doc::Document;
using doc::Value;
using net::ReplicaGroup;

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

core::GatewayConfig replicated_config(std::size_t replicas) {
  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 42;  // deterministic backoff schedule
  cfg.replicas = replicas;
  return cfg;
}

/// Serialized "doc.put" request — the minimal write for group-level tests.
Bytes put_request(const std::string& id, std::uint8_t fill) {
  net::Request r;
  r.method = "doc.put";
  r.payload = core::wire::pack(
      {{"col", Value(std::string("c"))}, {"id", Value(id)}, {"blob", Value(Bytes(64, fill))}});
  return r.serialize();
}

/// Asserts every replica's channel carried exactly the log's wire bytes up
/// to its applied sequence — the structural no-duplicate-application check
/// (a re-shipped entry would inflate bytes_sent past the log total). Call
/// BEFORE issuing reads through the group: read traffic adds bytes.
void expect_byte_exact_replication(ShardedCloud& rc) {
  ReplicaGroup* g = rc.group(0);
  ASSERT_NE(g, nullptr);
  for (std::size_t i = 0; i < g->size(); ++i) {
    EXPECT_EQ(rc.channel(0, i).stats().bytes_sent.load(),
              g->log_wire_bytes(g->applied_seq(i)))
        << "replica " << i << " carried duplicated or missing write bytes";
  }
}

void expect_digests_converged(ShardedCloud& rc) {
  const std::uint64_t d0 = rc.node(0, 0).state_digest();
  for (std::size_t i = 1; i < rc.replicas_per_shard(); ++i) {
    EXPECT_EQ(rc.node(0, i).state_digest(), d0) << "replica " << i << " diverged";
  }
}

// --- group-level scenarios (raw wire traffic, no gateway) --------------------

TEST(ChaosGroup, AckLostWriteIsDedupedOnRetryByteExactly) {
  // The response leg of a write faults AFTER the primary applied it. The
  // ack is lost, but the entry is replicated; re-sending the same bytes
  // (what RpcClient's retry does) must finish the write — ack from the
  // stored response — without a second application anywhere.
  ShardedCloud rc(replicated_config(3));
  ReplicaGroup* g = rc.group(0);
  ASSERT_NE(g, nullptr);
  Counters counters;
  g->set_counters(&counters);

  const Bytes wire = put_request("doc-1", 0xAB);
  net::FaultPlan plan;
  plan.fail_transfers = {2};  // ordinal 1 = request leg, 2 = response leg
  rc.channel(0, 0).arm_fault_plan(plan);

  try {
    g->call("doc.put", wire);
    FAIL() << "expected the lost ack to surface as kUnavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(counters.counter("net.replica.ack_lost"), 1u);
  // Applied on the primary and replicated to both backups despite the
  // missing ack; not yet acknowledged.
  EXPECT_EQ(g->log_entries(), 1u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(g->applied_seq(i), 1u);

  // Byte-identical retry: deduped, acknowledged, applied exactly once.
  g->call("doc.put", wire);
  EXPECT_EQ(counters.counter("net.replica.write_dedup"), 1u);
  EXPECT_EQ(g->log_entries(), 1u);
  EXPECT_EQ(g->committed_seq(), 1u);
  expect_digests_converged(rc);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rc.node(0, i).rpc().method_count() > 0);
    EXPECT_TRUE(
        rc.node(0, i).state_digest() == rc.node(0, 0).state_digest());
  }
  // Backup channels carried the wire bytes exactly once each.
  EXPECT_EQ(rc.channel(0, 1).stats().bytes_sent.load(), wire.size());
  EXPECT_EQ(rc.channel(0, 2).stats().bytes_sent.load(), wire.size());
}

TEST(ChaosGroup, FaultingBackupIsDemotedBeforeAckAndRejoinsExactlyOnce) {
  // A backup that faults during shipping is demoted BEFORE the ack, so
  // "acknowledged" never covers a replica that missed the write. After it
  // heals, catch-up replays exactly the missed suffix.
  core::GatewayConfig cfg = replicated_config(3);
  cfg.accrual.suspect_threshold = 1;  // demote on the first miss
  ShardedCloud rc(cfg);
  ReplicaGroup* g = rc.group(0);
  Counters counters;
  g->set_counters(&counters);

  g->call("doc.put", put_request("a", 1));  // all replicas healthy

  rc.channel(0, 2).close();  // partition backup 2
  g->call("doc.put", put_request("b", 2));
  g->call("doc.put", put_request("c", 3));
  EXPECT_EQ(counters.counter("net.replica.demote"), 1u);
  EXPECT_EQ(g->applied_seq(0), 3u);
  EXPECT_EQ(g->applied_seq(1), 3u);
  EXPECT_EQ(g->applied_seq(2), 1u);  // lagging, excluded from the ack set
  EXPECT_EQ(g->committed_seq(), 3u);  // acked without the suspect

  rc.channel(0, 2).reopen();
  EXPECT_EQ(g->catch_up_all(), 3u);
  EXPECT_GE(counters.counter("net.replica.rejoin"), 1u);
  EXPECT_EQ(g->applied_seq(2), 3u);
  expect_byte_exact_replication(rc);
  expect_digests_converged(rc);
}

TEST(ChaosGroup, NonWhitelistedReadIsNeverResentAfterSend) {
  // Satellite 2: a method outside the retry whitelist must not be hedged
  // and must not fail over to another replica once its request leg has
  // shipped — even when the response leg faults.
  ShardedCloud rc(replicated_config(2));
  ReplicaGroup* g = rc.group(0);
  // Whitelist WITHOUT doc.get: the group must treat it as un-resendable.
  g->set_hedgeable([](const std::string&) { return false; });

  g->call("doc.put", put_request("x", 9));
  const Bytes read = [] {
    net::Request r;
    r.method = "doc.get";
    r.payload = core::wire::pack(
        {{"col", Value(std::string("c"))}, {"id", Value(std::string("x"))}});
    return r.serialize();
  }();

  // Reads route by health score. The primary carries the write's latency
  // EWMA while the backup has no history (score 0), so the first read
  // deterministically goes to replica 1. Fault its RESPONSE leg: the
  // request shipped, so no second replica may see the method.
  net::FaultPlan plan;
  plan.fail_transfers = {2};  // ordinal 1 = request leg, 2 = response leg
  rc.channel(0, 1).arm_fault_plan(plan);
  const std::uint64_t primary_sent = rc.channel(0, 0).stats().bytes_sent.load();
  const std::uint64_t backup_sent = rc.channel(0, 1).stats().bytes_sent.load();

  EXPECT_THROW(g->call("doc.get", read), Error);
  // The read shipped to the backup and died on the response leg; the
  // primary saw NO traffic for this call: no hedge, no failover after send.
  EXPECT_EQ(rc.channel(0, 1).stats().bytes_sent.load(), backup_sent + read.size());
  EXPECT_EQ(rc.channel(0, 0).stats().bytes_sent.load(), primary_sent);
}

TEST(ChaosGroup, RequestLegFailureFailsOverEvenForNonWhitelistedReads) {
  // Contrast case: a fault BEFORE the request ships is always safe to
  // re-route — the method never reached any replica.
  ShardedCloud rc(replicated_config(2));
  ReplicaGroup* g = rc.group(0);
  g->set_hedgeable([](const std::string&) { return false; });
  g->call("doc.put", put_request("x", 9));

  const Bytes read = [] {
    net::Request r;
    r.method = "doc.get";
    r.payload = core::wire::pack(
        {{"col", Value(std::string("c"))}, {"id", Value(std::string("x"))}});
    return r.serialize();
  }();

  // Fail the request leg on the first-choice reader (the history-less
  // backup, replica 1): nothing shipped, so even a non-whitelisted method
  // re-routes and the primary serves the call.
  net::FaultPlan plan;
  plan.method_faults = {{"doc.get", /*skip=*/0, /*count=*/1}};
  rc.channel(0, 1).arm_fault_plan(plan);
  const std::uint64_t primary_trips = rc.channel(0, 0).stats().round_trips.load();
  const Bytes payload = g->call("doc.get", read);  // succeeds via failover
  EXPECT_FALSE(payload.empty());
  EXPECT_EQ(rc.channel(0, 0).stats().round_trips.load(), primary_trips + 1);
}

// --- gateway-level scenarios -------------------------------------------------

TEST(ChaosGateway, KillPrimaryMidInsertLosesNoAcknowledgedWrite) {
  ShardedCloud rc(replicated_config(3));
  kms::KeyManager kms(Bytes(32, 11));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), replicated_config(3));
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(21);
  std::vector<std::string> acked;
  for (int i = 0; i < 5; ++i) {
    Document d = gen.next();
    d.id = "pre-" + std::to_string(i);
    d.set("subject", Value("patient-c"));
    acked.push_back(gw.insert("obs", d));
  }

  // Kill the primary completely, mid-workload. The failure-accrual
  // detector demotes it after `suspect_threshold` consecutive transport
  // failures; the write fails over and the insert stream continues.
  ASSERT_NE(rc.group(0), nullptr);
  ASSERT_EQ(rc.group(0)->primary(), 0u);
  rc.channel(0, 0).close();
  for (int i = 5; i < 10; ++i) {
    Document d = gen.next();
    d.id = "post-" + std::to_string(i);
    d.set("subject", Value("patient-c"));
    acked.push_back(gw.insert("obs", d));
  }
  EXPECT_NE(rc.group(0)->primary(), 0u);
  EXPECT_GE(gw.perf().counter("net.replica.demote"), 1u);
  EXPECT_GE(gw.perf().counter("net.replica.failover"), 1u);

  // Invariant 1+3: every acknowledged write is readable with the old
  // primary still dead.
  for (const auto& id : acked) EXPECT_EQ(gw.read("obs", id).id, id);
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-c")).size(), 10u);

  // Heal: the old primary catches up on exactly the missed suffix and the
  // replica set reconverges byte-for-byte.
  rc.channel(0, 0).reopen();
  EXPECT_EQ(rc.catch_up(), 3u);
  EXPECT_EQ(rc.node(0, 0).state_digest(), rc.node(0, 1).state_digest());
  EXPECT_EQ(rc.node(0, 1).state_digest(), rc.node(0, 2).state_digest());
}

TEST(ChaosGateway, PartitionThenHealConvergesByteExactly) {
  ShardedCloud rc(replicated_config(3));
  kms::KeyManager kms(Bytes(32, 12));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), replicated_config(3));
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(22);
  for (int i = 0; i < 3; ++i) {
    Document d = gen.next();
    d.id = "before-" + std::to_string(i);
    gw.insert("obs", d);
  }

  // Partition backup 1 for a stretch of writes; it is demoted and the
  // writes are acknowledged by the surviving in-sync set.
  rc.channel(0, 1).close();
  for (int i = 0; i < 4; ++i) {
    Document d = gen.next();
    d.id = "during-" + std::to_string(i);
    gw.insert("obs", d);
  }
  ASSERT_NE(rc.group(0), nullptr);
  EXPECT_LT(rc.group(0)->applied_seq(1), rc.group(0)->applied_seq(0));

  // Heal. The next write's replication pass doubles as the probe: the
  // healed backup is caught up with exactly the missed log suffix.
  rc.channel(0, 1).reopen();
  Document d = gen.next();
  d.id = "after-heal";
  gw.insert("obs", d);
  EXPECT_EQ(rc.group(0)->applied_seq(1), rc.group(0)->applied_seq(0));
  EXPECT_GE(gw.perf().counter("net.replica.rejoin"), 1u);

  // Invariant 2, byte-exactly: every replica channel carried the log's
  // wire bytes exactly once (checked before any reads are issued).
  expect_byte_exact_replication(rc);
  expect_digests_converged(rc);
  EXPECT_EQ(gw.read("obs", "after-heal").id, "after-heal");
}

TEST(ChaosGateway, BackupLagThenPromoteServesEveryAcknowledgedWrite) {
  // The lagging backup heals, catches up, and is then promoted when the
  // primary dies — catch-up replay BEFORE promotion means no acknowledged
  // write is missing from the new primary.
  core::GatewayConfig cfg = replicated_config(3);
  // Demote on the first miss so a double failure (primary + one backup dead
  // at once) re-elects within a single retry budget.
  cfg.accrual.suspect_threshold = 1;
  ShardedCloud rc(cfg);
  kms::KeyManager kms(Bytes(32, 13));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(23);
  std::vector<std::string> acked;

  rc.channel(0, 2).close();  // replica 2 lags from the start of the workload
  for (int i = 0; i < 6; ++i) {
    Document d = gen.next();
    d.id = "w-" + std::to_string(i);
    d.set("subject", Value("patient-l"));
    acked.push_back(gw.insert("obs", d));
  }
  rc.channel(0, 2).reopen();
  EXPECT_EQ(rc.catch_up(), 3u);  // heals + fully catches up the laggard

  // Primary and replica 1 both die: only the once-lagging replica 2
  // remains. Failover must still produce a primary that holds every
  // acknowledged write.
  rc.channel(0, 0).close();
  rc.channel(0, 1).close();
  Document d = gen.next();
  d.id = "only-replica-2";
  d.set("subject", Value("patient-l"));
  acked.push_back(gw.insert("obs", d));
  EXPECT_EQ(rc.group(0)->primary(), 2u);

  for (const auto& id : acked) EXPECT_EQ(gw.read("obs", id).id, id);
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-l")).size(),
            acked.size());
}

TEST(ChaosGateway, ReadsSucceedWhileAnyHealthyReplicaRemains) {
  ShardedCloud rc(replicated_config(3));
  kms::KeyManager kms(Bytes(32, 14));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), replicated_config(3));
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(24);
  Document d = gen.next();
  d.id = "survivor";
  gw.insert("obs", d);

  rc.channel(0, 0).close();
  EXPECT_EQ(gw.read("obs", "survivor").id, "survivor");  // 2 replicas left
  rc.channel(0, 1).close();
  EXPECT_EQ(gw.read("obs", "survivor").id, "survivor");  // 1 replica left
  rc.channel(0, 2).close();
  EXPECT_THROW(gw.read("obs", "survivor"), Error);  // none left
  rc.channel(0, 1).reopen();
  EXPECT_EQ(gw.read("obs", "survivor").id, "survivor");  // healed
}

TEST(ChaosGateway, SlowReplicaHedgedReadStaysFastAndWins) {
  core::GatewayConfig cfg = replicated_config(3);
  cfg.hedge.enabled = true;
  cfg.hedge.min_delay_us = 300;
  cfg.hedge.max_delay_us = 2000;
  ShardedCloud rc(cfg);
  kms::KeyManager kms(Bytes(32, 15));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(25);
  Document d = gen.next();
  d.id = "hedged";
  gw.insert("obs", d);

  // Reads route by score; with no read history the backups tie at zero and
  // the lowest index wins. Make THAT replica slow (40 ms per round trip,
  // injected after the writes so replication stays fast): the hedge fires
  // after the p95-derived delay and the fast replica answers first.
  ASSERT_NE(rc.group(0), nullptr);
  const std::size_t slow = rc.group(0)->primary() == 1 ? 2 : 1;
  net::ChannelConfig slow_cfg;
  slow_cfg.one_way_latency_us = 20000;
  rc.channel(0, slow).set_config(slow_cfg);

  EXPECT_EQ(gw.read("obs", "hedged").id, "hedged");
  EXPECT_GE(gw.perf().counter("net.hedge.fired"), 1u);
  EXPECT_GE(gw.perf().counter("net.hedge.won"), 1u);
}

TEST(ChaosGateway, SingleReplicaConfigIsByteIdenticalToLegacyStack) {
  // Fidelity: replicas = 1 + hedge.enabled = false must build no routing
  // layer at all and drive the exact single-node client. Two checks:
  //  (a) a deterministic raw workload (no encryption randomness) produces
  //      byte-identical wire traffic on both stacks;
  //  (b) a full gateway workload produces the same round-trip count (byte
  //      totals can differ across runs only by fresh nonces/blinding, which
  //      never change the number or shape of the trips).
  core::CloudNode legacy_node;
  net::Channel legacy_channel;
  net::RpcClient legacy_rpc(legacy_node.rpc(), legacy_channel);

  core::GatewayConfig single;
  single.replicas = 1;
  single.hedge.enabled = false;
  ShardedCloud rc(single);
  EXPECT_EQ(rc.group(0), nullptr);  // no routing layer at all

  auto raw = [](net::RpcClient& rpc) {
    for (int i = 0; i < 4; ++i) {
      net::Request r;
      r.method = "doc.put";
      r.payload = core::wire::pack({{"col", Value(std::string("c"))},
                                    {"id", Value("raw-" + std::to_string(i))},
                                    {"blob", Value(Bytes(48, 0x5A))}});
      (void)rpc.call(r.method, r.payload);
    }
    net::Request r;
    r.method = "doc.get";
    r.payload = core::wire::pack(
        {{"col", Value(std::string("c"))}, {"id", Value(std::string("raw-2"))}});
    (void)rpc.call(r.method, r.payload);
  };
  raw(legacy_rpc);
  raw(rc.client());
  EXPECT_EQ(rc.channel(0, 0).stats().bytes_sent.load(),
            legacy_channel.stats().bytes_sent.load());
  EXPECT_EQ(rc.channel(0, 0).stats().bytes_received.load(),
            legacy_channel.stats().bytes_received.load());
  EXPECT_EQ(rc.channel(0, 0).stats().round_trips.load(),
            legacy_channel.stats().round_trips.load());
  EXPECT_EQ(rc.node(0, 0).state_digest(), legacy_node.state_digest());

  auto run = [](net::RpcClient& rpc) {
    kms::KeyManager kms(Bytes(32, 16));
    store::KvStore local;
    core::GatewayConfig cfg;
    cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
    core::Gateway gw(rpc, kms, local, registry(), cfg);
    gw.register_schema(fhir::benchmark_schema("obs"));
    fhir::ObservationGenerator gen(26);
    for (int i = 0; i < 5; ++i) {
      Document d = gen.next();
      d.id = "doc-" + std::to_string(i);
      d.set("subject", Value("patient-b"));
      gw.insert("obs", d);
    }
    (void)gw.equality_search("obs", "subject", Value("patient-b"));
    (void)gw.read("obs", "doc-3");
    (void)gw.aggregate("obs", "value", schema::Aggregate::kAverage);
  };
  const std::uint64_t legacy_raw_trips = legacy_channel.stats().round_trips.load();
  const std::uint64_t rc_raw_trips = rc.channel(0, 0).stats().round_trips.load();
  run(legacy_rpc);
  run(rc.client());
  EXPECT_EQ(rc.channel(0, 0).stats().round_trips.load() - rc_raw_trips,
            legacy_channel.stats().round_trips.load() - legacy_raw_trips);
}

}  // namespace
}  // namespace datablinder
