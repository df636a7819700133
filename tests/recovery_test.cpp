// Durability and recovery tests: the gateway's semi-persistent local store
// (Mitra counters, Paillier keys) survives restarts via the KvStore AOF,
// torn AOF tails are tolerated, and a fully rebooted trusted zone resumes
// service over the cloud-resident ciphertexts.
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

struct TempAof {
  explicit TempAof(const char* name) : path(std::string("/tmp/datablinder_") + name) {
    std::remove(path.c_str());
  }
  ~TempAof() { std::remove(path.c_str()); }
  std::string path;
};

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

TEST(RecoveryTest, GatewayRestartWithPersistedLocalStore) {
  TempAof aof("recovery1.aof");
  core::CloudNode cloud;  // the cloud outlives gateway incarnations
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 5);

  // Incarnation 1: insert documents through Mitra+DET+Paillier tactics.
  {
    kms::KeyManager kms(master);
    store::KvStore local(aof.path);  // semi-persistent gateway store
    core::Gateway gw(rpc, kms, local, registry(),
                     core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
    gw.register_schema(fhir::benchmark_schema("obs"));
    fhir::ObservationGenerator gen(9);
    for (int i = 0; i < 10; ++i) {
      Document d = gen.next();
      d.set("subject", Value("patient-x"));
      gw.insert("obs", d);
    }
    EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-x")).size(), 10u);
  }

  // Incarnation 2: same master key, REPLAYED local store.
  kms::KeyManager kms(master);
  store::KvStore local(aof.path);
  core::Gateway gw(rpc, kms, local, registry(),
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gw.register_schema(fhir::benchmark_schema("obs"));

  // Mitra counters recovered: search works.
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-x")).size(), 10u);
  // Paillier keypair recovered (not regenerated): old ciphertexts decrypt.
  const auto avg = gw.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, 10u);
  EXPECT_GT(avg.value, 0.0);

  // And new writes continue the recovered counter chain seamlessly.
  fhir::ObservationGenerator gen(10);
  Document d = gen.next();
  d.set("subject", Value("patient-x"));
  gw.insert("obs", d);
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-x")).size(), 11u);
}

TEST(RecoveryTest, TornAofTailIsTolerated) {
  TempAof aof("recovery2.aof");
  {
    store::KvStore kv(aof.path);
    kv.set("intact", Bytes{1, 2, 3});
    kv.sadd("s", "member");
  }
  // Simulate a crash mid-write: truncate the last few bytes of the log.
  {
    std::FILE* f = std::fopen(aof.path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 4);
    ASSERT_EQ(truncate(aof.path.c_str(), size - 3), 0);
    std::fclose(f);
  }
  // Reopen: the torn record (the sadd) may be lost, but the store must
  // come up with every complete record intact.
  store::KvStore kv(aof.path);
  EXPECT_EQ(kv.get("intact"), (Bytes{1, 2, 3}));
}

TEST(RecoveryTest, PaillierKeysAreStableAcrossRestarts) {
  TempAof aof("recovery3.aof");
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 6);

  schema::Schema s("ledger");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kDouble;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass1;
  f.operations = {schema::Operation::kInsert};
  f.aggregates = {schema::Aggregate::kSum};
  s.field("amount", f);

  {
    kms::KeyManager kms(master);
    store::KvStore local(aof.path);
    core::Gateway gw(rpc, kms, local, registry(),
                     core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
    gw.register_schema(s);
    for (double amount : {10.0, 20.0, 30.0}) {
      Document d;
      d.set("amount", Value(amount));
      gw.insert("ledger", d);
    }
  }

  kms::KeyManager kms(master);
  store::KvStore local(aof.path);
  core::Gateway gw(rpc, kms, local, registry(),
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gw.register_schema(s);
  // Summing pre-restart ciphertexts requires the SAME private key: if the
  // tactic had regenerated instead of recovering, decryption would yield
  // garbage or throw.
  EXPECT_NEAR(gw.aggregate("ledger", "amount", schema::Aggregate::kSum).value, 60.0,
              0.01);
  // And post-restart inserts fold into the same homomorphic column.
  Document d;
  d.set("amount", Value(40.0));
  gw.insert("ledger", d);
  EXPECT_NEAR(gw.aggregate("ledger", "amount", schema::Aggregate::kSum).value, 100.0,
              0.01);
}

TEST(RecoveryTest, MidInsertKillThenRetryConvergesExactlyOnce) {
  // Crash-consistent inserts: a scripted fault kills the channel mid-insert
  // (after the intent is journaled, while the mutation batch is in flight).
  // Retrying the insert with the same id must resume the ORIGINAL attempt by
  // replaying its recorded ciphertexts byte-identically — exactly-once
  // visible state, no duplicate index entries.
  TempAof aof("recovery4.aof");
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms(Bytes(32, 8));
  store::KvStore local(aof.path);

  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.journal_inserts = true;
  core::Gateway gw(rpc, kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(12);
  Document d = gen.next();
  d.id = "doc-killed-midway";
  d.set("subject", Value("patient-k"));

  // Kill the batch that carries doc.put + every index-stage update.
  net::FaultPlan plan;
  plan.method_faults = {{"rpc.batch", /*skip=*/0, /*count=*/1}};
  channel.set_fault_plan(plan);
  try {
    gw.insert("obs", d);
    FAIL() << "expected mid-insert channel kill";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }

  // The intent is durably pending; nothing reached the cloud.
  ASSERT_NE(gw.journal(), nullptr);
  ASSERT_EQ(gw.journal()->pending_count(), 1u);
  const auto intent = gw.journal()->find("obs", "doc-killed-midway");
  ASSERT_TRUE(intent.has_value());
  EXPECT_GE(intent->rpcs.size(), 2u);  // doc.put + index updates

  // Compute the exact wire size the recorded batch must occupy when
  // replayed: byte-identical replay is observable through the channel's
  // byte accounting.
  Bytes batch_payload = be32(static_cast<std::uint32_t>(intent->rpcs.size()));
  for (const auto& r : intent->rpcs) {
    const Bytes sub = r.serialize();
    append(batch_payload, be32(static_cast<std::uint32_t>(sub.size())));
    append(batch_payload, sub);
  }
  net::Request envelope;
  envelope.method = "rpc.batch";
  envelope.payload = batch_payload;
  const std::uint64_t expected_batch_bytes = envelope.serialize().size();

  // Retry with the same document: the gateway resumes the pending intent
  // instead of re-encrypting.
  const std::uint64_t sent_before = channel.stats().bytes_sent.load();
  EXPECT_EQ(gw.insert("obs", d), "doc-killed-midway");
  EXPECT_EQ(channel.stats().bytes_sent.load() - sent_before, expected_batch_bytes);
  EXPECT_EQ(gw.journal()->pending_count(), 0u);
  EXPECT_EQ(gw.perf().counter("core.journal.resume"), 1u);

  // Exactly-once convergence: one document, one index entry, decryptable.
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-k")).size(), 1u);
  EXPECT_EQ(gw.read("obs", "doc-killed-midway").id, "doc-killed-midway");

  // The Paillier column also saw the value exactly once.
  EXPECT_EQ(gw.aggregate("obs", "value", schema::Aggregate::kAverage).count, 1u);
}

TEST(RecoveryTest, RestartedGatewayResumesPendingInsertIntent) {
  // Gateway crash between journaling an intent and shipping the batch: the
  // restarted incarnation finds the intent in the replayed AOF and
  // completes it via recover_pending_inserts().
  TempAof aof("recovery5.aof");
  core::CloudNode cloud;  // cloud state outlives gateway incarnations
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 9);

  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.journal_inserts = true;

  // Incarnation 1: one insert lands, the next dies mid-batch ("crash").
  {
    kms::KeyManager kms(master);
    store::KvStore local(aof.path);
    core::Gateway gw(rpc, kms, local, registry(), cfg);
    gw.register_schema(fhir::benchmark_schema("obs"));

    fhir::ObservationGenerator gen(13);
    Document ok = gen.next();
    ok.id = "doc-landed";
    ok.set("subject", Value("patient-r"));
    gw.insert("obs", ok);

    Document doomed = gen.next();
    doomed.id = "doc-interrupted";
    doomed.set("subject", Value("patient-r"));
    net::FaultPlan plan;
    plan.method_faults = {{"rpc.batch", /*skip=*/0, /*count=*/1}};
    channel.set_fault_plan(plan);
    EXPECT_THROW(gw.insert("obs", doomed), Error);
    channel.clear_fault_plan();
    EXPECT_EQ(gw.journal()->pending_count(), 1u);
  }  // crash: gateway and local store torn down with the intent pending

  // Incarnation 2: same master key, replayed AOF.
  kms::KeyManager kms(master);
  store::KvStore local(aof.path);
  core::Gateway gw(rpc, kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  ASSERT_EQ(gw.journal()->pending_count(), 1u);
  EXPECT_EQ(gw.recover_pending_inserts(), 1u);
  EXPECT_EQ(gw.journal()->pending_count(), 0u);

  // Both documents visible exactly once; the recovered one decrypts, and
  // the homomorphic aggregate covers both.
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-r")).size(), 2u);
  EXPECT_EQ(gw.read("obs", "doc-interrupted").id, "doc-interrupted");
  EXPECT_EQ(gw.aggregate("obs", "value", schema::Aggregate::kAverage).count, 2u);
}

TEST(RecoveryTest, PendingIntentReplaysToEveryReplicaExactlyOnce) {
  // Intent-journal kill/restart against a THREE-replica cloud: the whole
  // replica set becomes unreachable mid-insert (after the intent is
  // journaled, before the batch ships). The restarted incarnation resumes
  // the intent through the replica group, and the recorded batch reaches
  // every replica exactly once — byte-exact per channel, digests equal.
  TempAof aof("recovery6.aof");
  const Bytes master(32, 10);

  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.journal_inserts = true;
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 7;
  cfg.replicas = 3;
  core::ShardedCloud rc(cfg);  // the replica set outlives gateway incarnations

  // Incarnation 1: the batch dies on every replica's request leg — retries
  // and failover exhaust without a single byte of it shipping anywhere.
  {
    kms::KeyManager kms(master);
    store::KvStore local(aof.path);
    core::Gateway gw(rc.client(), kms, local, registry(), cfg);
    gw.register_schema(fhir::benchmark_schema("obs"));

    fhir::ObservationGenerator gen(14);
    Document d = gen.next();
    d.id = "doc-cluster-interrupted";
    d.set("subject", Value("patient-z"));

    net::FaultPlan plan;
    plan.method_faults = {{"rpc.batch", /*skip=*/0, /*count=*/100}};
    for (std::size_t i = 0; i < rc.replicas_per_shard(); ++i) rc.channel(0, i).set_fault_plan(plan);
    EXPECT_THROW(gw.insert("obs", d), Error);
    for (std::size_t i = 0; i < rc.replicas_per_shard(); ++i) rc.channel(0, i).clear_fault_plan();
    ASSERT_NE(gw.journal(), nullptr);
    EXPECT_EQ(gw.journal()->pending_count(), 1u);
  }  // crash: gateway torn down with the intent pending

  // Incarnation 2: same master key, replayed AOF, same (healed) replica
  // set. The schema setup writes re-elect a primary and pull every replica
  // back in sync before recovery runs.
  kms::KeyManager kms(master);
  store::KvStore local(aof.path);
  core::Gateway gw(rc.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  ASSERT_EQ(gw.journal()->pending_count(), 1u);
  const auto intent = gw.journal()->find("obs", "doc-cluster-interrupted");
  ASSERT_TRUE(intent.has_value());

  // The exact wire size the recorded batch occupies when replayed — the
  // same envelope encoding flush_deferred() uses.
  Bytes batch_payload = be32(static_cast<std::uint32_t>(intent->rpcs.size()));
  for (const auto& r : intent->rpcs) {
    const Bytes sub = r.serialize();
    append(batch_payload, be32(static_cast<std::uint32_t>(sub.size())));
    append(batch_payload, sub);
  }
  net::Request envelope;
  envelope.method = "rpc.batch";
  envelope.payload = batch_payload;
  const std::uint64_t expected_batch_bytes = envelope.serialize().size();

  ASSERT_NE(rc.group(0), nullptr);
  for (std::size_t i = 0; i < rc.replicas_per_shard(); ++i) {
    ASSERT_EQ(rc.group(0)->applied_seq(i), rc.group(0)->applied_seq(0))
        << "replica " << i << " not in sync before recovery";
  }
  std::vector<std::uint64_t> sent_before;
  for (std::size_t i = 0; i < rc.replicas_per_shard(); ++i) {
    sent_before.push_back(rc.channel(0, i).stats().bytes_sent.load());
  }

  EXPECT_EQ(gw.recover_pending_inserts(), 1u);
  EXPECT_EQ(gw.journal()->pending_count(), 0u);

  // Exactly once, on every replica: each channel carried precisely one copy
  // of the recorded batch, and the replica states are identical.
  for (std::size_t i = 0; i < rc.replicas_per_shard(); ++i) {
    EXPECT_EQ(rc.channel(0, i).stats().bytes_sent.load() - sent_before[i],
              expected_batch_bytes)
        << "replica " << i << " saw the replayed batch more or less than once";
  }
  for (std::size_t i = 1; i < rc.replicas_per_shard(); ++i) {
    EXPECT_EQ(rc.node(0, i).state_digest(), rc.node(0, 0).state_digest());
  }
  EXPECT_EQ(gw.equality_search("obs", "subject", Value("patient-z")).size(), 1u);
  EXPECT_EQ(gw.read("obs", "doc-cluster-interrupted").id, "doc-cluster-interrupted");
  EXPECT_EQ(gw.aggregate("obs", "value", schema::Aggregate::kAverage).count, 1u);
}

TEST(RecoveryTest, WithoutPersistenceMitraSearchDegradesLoudlyNot) {
  // Documented behaviour check (mirrors stateless_test's contrast case):
  // an in-memory local store means Mitra counters vanish on restart — the
  // middleware returns empty results (no crash, no garbage).
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 7);
  {
    kms::KeyManager kms(master);
    store::KvStore local;  // volatile
    core::Gateway gw(rpc, kms, local, registry(),
                     core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
    gw.register_schema(fhir::benchmark_schema("obs"));
    fhir::ObservationGenerator gen(11);
    Document d = gen.next();
    d.set("subject", Value("ghost"));
    gw.insert("obs", d);
  }
  kms::KeyManager kms(master);
  store::KvStore local;
  core::Gateway gw(rpc, kms, local, registry(),
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gw.register_schema(fhir::benchmark_schema("obs"));
  EXPECT_TRUE(gw.equality_search("obs", "subject", Value("ghost")).empty());
}

}  // namespace
}  // namespace datablinder
