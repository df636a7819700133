// PerfRegistry tests — the Fig. 1 performance-metrics reification and its
// integration in the gateway's dispatch paths.
#include <gtest/gtest.h>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/metrics.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"

namespace datablinder::core {
namespace {

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

}  // namespace
}  // namespace datablinder::core
