// PerfRegistry tests — the Fig. 1 performance-metrics reification and its
// integration in the gateway's dispatch paths.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/metrics.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"
#include "phe/paillier.hpp"

namespace datablinder::core {
namespace {

using bigint::BigInt;
using doc::Document;
using doc::Value;

TEST(PerfRegistryTest, RecordsAndAggregates) {
  PerfRegistry reg;
  reg.record("DET", TacticOperation::kInsert, 1000);
  reg.record("DET", TacticOperation::kInsert, 3000);
  reg.record("DET", TacticOperation::kEqualitySearch, 500);

  const OpStats inserts = reg.stats("DET", TacticOperation::kInsert);
  EXPECT_EQ(inserts.count, 2u);
  EXPECT_EQ(inserts.total_ns, 4000u);
  EXPECT_EQ(inserts.max_ns, 3000u);
  EXPECT_DOUBLE_EQ(inserts.mean_us(), 2.0);

  EXPECT_EQ(reg.stats("DET", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(reg.stats("Mitra", TacticOperation::kInsert).count, 0u);
  EXPECT_EQ(reg.snapshot().size(), 2u);

  reg.reset();
  EXPECT_EQ(reg.snapshot().size(), 0u);
}

TEST(PerfRegistryTest, ScopedPerfFilesOnDestruction) {
  PerfRegistry reg;
  { ScopedPerf s(reg, "OPE", TacticOperation::kRangeQuery); }
  EXPECT_EQ(reg.stats("OPE", TacticOperation::kRangeQuery).count, 1u);
}

TEST(PerfRegistryTest, EwmaTracksWorkloadShifts) {
  PerfRegistry reg;
  reg.record("OPE", TacticOperation::kRangeQuery, 100'000);  // first sample seeds
  EXPECT_DOUBLE_EQ(reg.stats("OPE", TacticOperation::kRangeQuery).ewma_us, 100.0);

  // A sustained 5x slowdown pulls the EWMA most of the way within a few
  // half-lives (alpha = 1/8) but never overshoots the new level.
  for (int i = 0; i < 40; ++i) reg.record("OPE", TacticOperation::kRangeQuery, 500'000);
  const OpStats s = reg.stats("OPE", TacticOperation::kRangeQuery);
  EXPECT_GT(s.ewma_us, 450.0);
  EXPECT_LE(s.ewma_us, 500.0);
}

TEST(PerfRegistryTest, QuantilesComeFromTheDecayWindow) {
  PerfRegistry reg;
  // 90 fast samples + 10 slow outliers: p50 stays fast, p95 sees the tail.
  for (int i = 0; i < 90; ++i) reg.record("DET", TacticOperation::kInsert, 10'000);
  for (int i = 0; i < 10; ++i) reg.record("DET", TacticOperation::kInsert, 900'000);
  OpStats s = reg.stats("DET", TacticOperation::kInsert);
  EXPECT_DOUBLE_EQ(s.p50_us, 10.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 900.0);

  // The ring decays: after kWindow newer samples the outliers age out
  // entirely, while cumulative count/total keep the full history.
  for (std::size_t i = 0; i < PerfSeries::kWindow; ++i) {
    reg.record("DET", TacticOperation::kInsert, 20'000);
  }
  s = reg.stats("DET", TacticOperation::kInsert);
  EXPECT_DOUBLE_EQ(s.p50_us, 20.0);
  EXPECT_DOUBLE_EQ(s.p95_us, 20.0);
  EXPECT_EQ(s.count, 100u + PerfSeries::kWindow);
  EXPECT_EQ(s.max_ns, 900'000u);
}

TEST(PerfRegistryTest, HandleIsStableAndSeesLaterRecords) {
  PerfRegistry reg;
  const PerfSeries* h = reg.handle("plan.OPE", TacticOperation::kRangeQuery);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->recent_count(), 0u);

  reg.record("plan.OPE", TacticOperation::kRangeQuery, 2'000);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->ewma_us(), 2.0);
  // Resolving again yields the same series (stable address for hot loops).
  EXPECT_EQ(reg.handle("plan.OPE", TacticOperation::kRangeQuery), h);
  // recent_count saturates at the window size.
  for (int i = 0; i < 300; ++i) reg.record("plan.OPE", TacticOperation::kRangeQuery, 1'000);
  EXPECT_EQ(h->recent_count(), PerfSeries::kWindow);
}

TEST(PerfRegistryTest, ReportRenders) {
  PerfRegistry reg;
  reg.record("Paillier", TacticOperation::kAverage, 5000000);
  const std::string report = reg.report();
  EXPECT_NE(report.find("Paillier"), std::string::npos);
  EXPECT_NE(report.find("average"), std::string::npos);
}

TEST(GatewayMetricsTest, EveryTacticPathIsAccounted) {
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  TacticRegistry registry;
  register_builtin_tactics(registry);
  Gateway gateway(rpc, kms, local, registry,
                  GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gateway.register_schema(fhir::observation_schema("obs"));

  fhir::ObservationGenerator gen(1);
  for (int i = 0; i < 5; ++i) gateway.insert("obs", gen.next());
  gateway.equality_search("obs", "subject", gen.random_subject());
  gateway.equality_search("obs", "status", gen.random_status());
  const auto [lo, hi] = gen.random_effective_range();
  gateway.range_search("obs", "effective", lo, hi);
  gateway.aggregate("obs", "value", schema::Aggregate::kAverage);

  const PerfRegistry& perf = gateway.perf();
  // Inserts: 5 each through Mitra, DET (x2 fields), OPE (x2 fields as one
  // tactic instance per field), Paillier, BIEX, RND.
  EXPECT_EQ(perf.stats("Mitra", TacticOperation::kInsert).count, 5u);
  EXPECT_EQ(perf.stats("BIEX-2Lev", TacticOperation::kInsert).count, 5u);
  EXPECT_EQ(perf.stats("Paillier", TacticOperation::kInsert).count, 5u);
  EXPECT_EQ(perf.stats("DET", TacticOperation::kInsert).count, 10u);  // 2 fields
  EXPECT_EQ(perf.stats("OPE", TacticOperation::kInsert).count, 10u);  // 2 fields

  // Queries.
  EXPECT_EQ(perf.stats("Mitra", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(perf.stats("BIEX-2Lev", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(perf.stats("OPE", TacticOperation::kRangeQuery).count, 1u);
  EXPECT_EQ(perf.stats("Paillier", TacticOperation::kAverage).count, 1u);

  // Timings are plausible (positive, bounded mean).
  EXPECT_GT(perf.stats("Paillier", TacticOperation::kInsert).mean_us(), 0.0);
  EXPECT_FALSE(perf.report().empty());
}

TEST(GatewayMetricsTest, BooleanSearchAttributesToTactics) {
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  TacticRegistry registry;
  register_builtin_tactics(registry);
  Gateway gateway(rpc, kms, local, registry,
                  GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gateway.register_schema(fhir::observation_schema("obs"));

  fhir::ObservationGenerator gen(2);
  for (int i = 0; i < 3; ++i) gateway.insert("obs", gen.next());

  FieldBoolQuery q;
  q.dnf.push_back({{"status", Value("final")},
                   {"effective", Value(std::int64_t{1})}});  // BIEX term + DET term
  gateway.boolean_search("obs", q);

  EXPECT_EQ(gateway.perf().stats("BIEX-2Lev", TacticOperation::kBooleanSearch).count,
            1u);
  EXPECT_EQ(gateway.perf().stats("DET", TacticOperation::kEqualitySearch).count, 1u);
}

TEST(GatewayMetricsTest, PaillierPoolCountsEveryEncryptOfEveryField) {
  // Two Paillier-aggregated fields, each with its own randomizer pool,
  // index in parallel within one insert: every encrypt counts exactly one
  // pool hit or miss, summed over both fields.
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  TacticRegistry registry;
  register_builtin_tactics(registry);
  Gateway gateway(
      rpc, kms, local, registry,
      GatewayConfig{{{"paillier_modulus_bits", "256"}, {"paillier_pool", "4"}}});
  schema::Schema s("vitals");
  for (const char* field : {"systolic", "diastolic"}) {
    schema::FieldAnnotation ann;
    ann.type = schema::FieldType::kDouble;
    ann.sensitive = true;
    ann.protection = schema::ProtectionClass::kClass1;
    ann.operations = {schema::Operation::kInsert};
    ann.aggregates = {schema::Aggregate::kSum};
    s.field(field, ann);
  }
  gateway.register_schema(s);

  constexpr std::uint64_t kInserts = 12;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    Document d;
    d.id = "v-" + std::to_string(i);
    d.set("systolic", Value(120.0 + static_cast<double>(i)));
    d.set("diastolic", Value(80.0 + static_cast<double>(i)));
    gateway.insert("vitals", d);
  }

  const PerfRegistry& perf = gateway.perf();
  EXPECT_EQ(perf.stats("Paillier", TacticOperation::kInsert).count, 2 * kInserts);
  EXPECT_EQ(perf.counter("core.crypto.paillier.encrypt"), 2 * kInserts);
  EXPECT_EQ(perf.counter("core.crypto.paillier.pool.hit") +
                perf.counter("core.crypto.paillier.pool.miss"),
            2 * kInserts);
}

schema::Schema vitals_schema() {
  schema::Schema s("vitals");
  schema::FieldAnnotation ann;
  ann.type = schema::FieldType::kDouble;
  ann.sensitive = true;
  ann.protection = schema::ProtectionClass::kClass1;
  ann.operations = {schema::Operation::kInsert};
  ann.aggregates = {schema::Aggregate::kSum};
  s.field("systolic", ann);
  return s;
}

constexpr const char* kVitalsKeySlot = "paillier-keys:paillier/vitals/systolic";
constexpr const char* kVitalsSealScope = "paillier-key/vitals/systolic";

phe::PaillierKeyPair open_vitals_key(const store::KvStore& local, kms::KeyManager& kms,
                                     bool* legacy) {
  const std::optional<Bytes> blob = local.get(kVitalsKeySlot);
  if (!blob) throw_error(ErrorCode::kNotFound, "no persisted key");
  return phe::open_keypair(*blob, kms.derive(kVitalsSealScope, 32),
                           to_bytes(kVitalsSealScope), legacy);
}

TEST(GatewayMetricsTest, PaillierKeyReloadedFromItsBlobStillEncryptsByCrt) {
  // A gateway restarted over the same local store reloads the persisted
  // keypair (n, lambda, mu, p, q) and keeps the CRT route. A blob cut back
  // to the legacy n, lambda, mu form falls back to the public route. Both
  // routes encrypt under the one key, so the cloud's running sum stays exact.
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  TacticRegistry registry;
  register_builtin_tactics(registry);
  const schema::Schema s = vitals_schema();

  double total = 0.0;
  int inserted = 0;
  // One gateway lifetime: set up (load or generate the key), insert four
  // values, check the sum over everything inserted so far.
  auto restart = [&](const std::string& route) {
    Gateway gateway(rpc, kms, local, registry,
                    GatewayConfig{{{"paillier_modulus_bits", "256"}}});
    gateway.register_schema(s);
    const PerfRegistry& perf = gateway.perf();
    EXPECT_EQ(perf.counter("core.crypto.paillier.setup." + route), 1u) << route;
    EXPECT_EQ(perf.counter("core.crypto.paillier.setup.crt") +
                  perf.counter("core.crypto.paillier.setup.public"),
              1u);
    for (int i = 0; i < 4; ++i, ++inserted) {
      Document d;
      d.id = "v-" + std::to_string(inserted);
      const double v = 100.25 + inserted;
      d.set("systolic", Value(v));
      gateway.insert("vitals", d);
      total += v;
    }
    EXPECT_EQ(perf.counter("core.crypto.paillier.encrypt"), 4u);
    EXPECT_NEAR(gateway.aggregate("vitals", "systolic", schema::Aggregate::kSum).value,
                total, 1e-9)
        << route;
  };

  restart("crt");  // generates and persists the keypair
  bool legacy = true;
  const BigInt n = open_vitals_key(local, kms, &legacy).pub.n;
  EXPECT_FALSE(legacy);
  restart("crt");  // reloads it from the sealed blob
  EXPECT_EQ(open_vitals_key(local, kms, &legacy).pub.n, n);

  // Write the key back in the plaintext form persisted before sealing and
  // before CRT: n, lambda, mu, each length-prefixed.
  const phe::PaillierKeyPair kp = open_vitals_key(local, kms, &legacy);
  Bytes plain;
  for (const BigInt* v : {&kp.pub.n, &kp.priv.lambda, &kp.priv.mu}) {
    const Bytes b = v->to_bytes();
    append(plain, be32(static_cast<std::uint32_t>(b.size())));
    append(plain, b);
  }
  local.set(kVitalsKeySlot, plain);
  restart("public");
  // The legacy blob loaded and was persisted again, sealed.
  const phe::PaillierKeyPair resealed = open_vitals_key(local, kms, &legacy);
  EXPECT_FALSE(legacy);
  EXPECT_EQ(resealed.pub.n, n);
  restart("public");
}

TEST(GatewayMetricsTest, PaillierKeyIsSealedAtRest) {
  // With an AOF-backed local store the persisted keypair reaches disk: it
  // must do so sealed, reload under the same KMS master key, and refuse to
  // load under another one.
  const std::string aof = (std::filesystem::temp_directory_path() /
                           ("datablinder_paillier_seal_" + std::to_string(::getpid()) + ".aof"))
                              .string();
  std::remove(aof.c_str());
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms(Bytes(32, 0x5a));
  TacticRegistry registry;
  register_builtin_tactics(registry);
  const GatewayConfig config{{{"paillier_modulus_bits", "256"}}};

  phe::PaillierKeyPair kp;
  {
    store::KvStore local(aof);
    Gateway gateway(rpc, kms, local, registry, config);
    gateway.register_schema(vitals_schema());
    bool legacy = true;
    kp = open_vitals_key(local, kms, &legacy);
    EXPECT_FALSE(legacy);
    ASSERT_TRUE(local.sync().ok());
  }
  std::ifstream in(aof, std::ios::binary);
  const std::string disk((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(disk.empty());
  for (const BigInt* secret : {&kp.priv.p, &kp.priv.q, &kp.priv.lambda}) {
    const Bytes be = secret->to_bytes();
    EXPECT_EQ(disk.find(std::string(be.begin(), be.end())), std::string::npos);
  }

  {
    store::KvStore local(aof);  // replays the AOF
    Gateway gateway(rpc, kms, local, registry, config);
    gateway.register_schema(vitals_schema());
    EXPECT_EQ(gateway.perf().counter("core.crypto.paillier.setup.crt"), 1u);
    bool legacy = true;
    EXPECT_EQ(open_vitals_key(local, kms, &legacy).pub.n, kp.pub.n);
    Document d;
    d.id = "v-0";
    d.set("systolic", Value(120.5));
    gateway.insert("vitals", d);
    EXPECT_NEAR(gateway.aggregate("vitals", "systolic", schema::Aggregate::kSum).value,
                120.5, 1e-9);
  }

  {
    store::KvStore local(aof);
    kms::KeyManager other(Bytes(32, 0xa5));
    Gateway gateway(rpc, other, local, registry, config);
    try {
      gateway.register_schema(vitals_schema());
      ADD_FAILURE() << "a key sealed under another master key loaded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCryptoFailure);
    }
  }
  std::remove(aof.c_str());
}

}  // namespace
}  // namespace datablinder::core
