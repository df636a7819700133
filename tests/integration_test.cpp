// Cross-module integration tests: the three evaluation scenarios agree on
// results, the §5.1 worked example runs end to end, and cloud-side
// observability matches.
#include <gtest/gtest.h>

#include "common/status.hpp"
#include "common/stopwatch.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "fhir/observation.hpp"
#include "workload/scenarios.hpp"

namespace datablinder::workload {
namespace {

using doc::Document;
using doc::Value;

core::TacticRegistry& shared_registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

TEST(ScenarioTest, AllThreeScenariosAgreeOnResults) {
  ScenarioHarness ha, hb, hc;
  ScenarioA sa(ha);
  ScenarioB sb(hb);
  ScenarioC sc(hc, shared_registry());

  fhir::ObservationGenerator gen(1234);
  std::vector<Document> corpus;
  for (int i = 0; i < 40; ++i) corpus.push_back(gen.next());

  for (const auto& d : corpus) {
    sa.insert_document(d);
    sb.insert_document(d);
    sc.insert_document(d);
  }

  // Equality searches return identical counts in all scenarios, on every
  // field S_C routes. effective, issued and value rarely repeat, so their
  // probes are taken from stored documents: each matches at least once.
  fhir::ObservationGenerator qgen(77);
  std::size_t matched = 0;
  for (int i = 0; i < 10; ++i) {
    const Document& stored = corpus[static_cast<std::size_t>(i) * 4];
    const std::pair<const char*, Value> probes[] = {
        {"status", qgen.random_status()},   {"code", qgen.random_code()},
        {"subject", qgen.random_subject()}, {"effective", stored.at("effective")},
        {"issued", stored.at("issued")},    {"value", stored.at("value")},
    };
    for (const auto& [field, value] : probes) {
      const std::size_t plain = sa.equality_search(field, value);
      EXPECT_EQ(sb.equality_search(field, value), plain) << field;
      EXPECT_EQ(sc.equality_search(field, value), plain) << field;
      matched += plain;
    }
  }
  EXPECT_GE(matched, 30u);

  // Aggregates agree up to the Paillier fixed-point resolution.
  const double plain_avg = sa.aggregate_average("value");
  EXPECT_NEAR(sb.aggregate_average("value"), plain_avg, 0.01);
  EXPECT_NEAR(sc.aggregate_average("value"), plain_avg, 0.01);
}

TEST(ScenarioTest, HandWiredBaselineSendsExactlyWhatTheGatewaySends) {
  // S_B is S_C minus the middleware: fed the same documents under fixed
  // ids, and asked the same queries, both put the same traffic on the wire
  // after every phase.
  ScenarioHarness hb, hc;
  ScenarioB sb(hb);
  ScenarioC sc(hc, shared_registry());
  auto expect_same_wire = [&](const char* phase) {
    const net::ChannelStats& b = hb.channel.stats();
    const net::ChannelStats& c = hc.channel.stats();
    EXPECT_EQ(b.round_trips.load(), c.round_trips.load()) << phase;
    EXPECT_EQ(b.bytes_sent.load(), c.bytes_sent.load()) << phase;
    EXPECT_EQ(b.bytes_received.load(), c.bytes_received.load()) << phase;
  };
  expect_same_wire("setup");

  fhir::ObservationGenerator gen(2024);
  std::vector<Document> corpus;
  for (int i = 0; i < 40; ++i) {
    Document d = gen.next();
    d.id = "obs-" + std::to_string(i);
    corpus.push_back(d);
    sb.insert_document(d);
    sc.insert_document(d);
  }
  expect_same_wire("insert");

  fhir::ObservationGenerator qgen(31);
  std::size_t matched = 0;
  for (int i = 0; i < 10; ++i) {
    const Document& stored = corpus[static_cast<std::size_t>(i) * 4];
    const std::pair<const char*, Value> probes[] = {
        {"status", qgen.random_status()},   {"code", qgen.random_code()},
        {"subject", qgen.random_subject()}, {"effective", stored.at("effective")},
        {"issued", stored.at("issued")},    {"value", stored.at("value")},
    };
    for (const auto& [field, value] : probes) {
      const std::size_t found = sc.equality_search(field, value);
      EXPECT_EQ(sb.equality_search(field, value), found) << field;
      matched += found;
    }
  }
  EXPECT_GE(matched, 30u);
  expect_same_wire("search");

  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(sb.aggregate_average("value"), sc.aggregate_average("value"), 1e-9);
  }
  expect_same_wire("average");
}

TEST(ScenarioTest, CloudTracksIndexOpsAndStorage) {
  ScenarioHarness h;
  ScenarioC sc(h, shared_registry());
  fhir::ObservationGenerator gen(5);
  for (int i = 0; i < 10; ++i) sc.insert_document(gen.next());

  // 8 tactic index updates per insert (5 DET + Mitra + Paillier + doc) —
  // at least 7 index ops per document.
  EXPECT_GE(h.cloud_node.index_ops(), 70u);
  EXPECT_GT(h.cloud_node.storage_bytes(), 0u);
  EXPECT_GT(h.channel.stats().bytes_sent.load(), 0u);
  EXPECT_GT(h.channel.stats().round_trips.load(), 10u);
}

TEST(ScenarioTest, Section51WorkedExampleEndToEnd) {
  // The paper's running example: the f001 glucose observation, annotated
  // per §5.1, inserted and queried through every selected tactic.
  ScenarioHarness h;
  core::Gateway gateway(h.rpc, h.kms, h.local_store, shared_registry(),
                        core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gateway.register_schema(fhir::observation_schema("observations"));

  Document f001;
  f001.id = "f001";
  f001.set("identifier", Value(std::int64_t{6323}));
  f001.set("status", Value("final"));
  f001.set("code", Value("glucose"));
  f001.set("subject", Value("John Doe"));
  f001.set("effective", Value(std::int64_t{1359966610}));
  f001.set("issued", Value(std::int64_t{1362407410}));
  f001.set("performer", Value("John Smith"));
  f001.set("value", Value(6.3));
  f001.set("interpretation", Value("High"));
  gateway.insert("observations", f001);

  // Boolean search over status & code (BIEX-2Lev).
  core::FieldBoolQuery q;
  q.dnf.push_back({{"status", Value("final")}, {"code", Value("glucose")}});
  EXPECT_EQ(gateway.boolean_search("observations", q).size(), 1u);

  // Identifier-protected subject search (Mitra).
  EXPECT_EQ(gateway.equality_search("observations", "subject", Value("John Doe")).size(),
            1u);

  // Range query over effective (DET+OPE).
  EXPECT_EQ(gateway
                .range_search("observations", "effective",
                              Value(std::int64_t{1359900000}),
                              Value(std::int64_t{1360000000}))
                .size(),
            1u);

  // Cloud-side average (Paillier).
  EXPECT_NEAR(
      gateway.aggregate("observations", "value", schema::Aggregate::kAverage).value, 6.3,
      0.01);

  // The rendered selection table matches the paper's.
  const std::string table = gateway.plan("observations").to_table();
  EXPECT_NE(table.find("BIEX-2Lev"), std::string::npos);
  EXPECT_NE(table.find("DET, OPE"), std::string::npos);
}

TEST(ScenarioTest, ChannelLatencyHitsAllScenariosEqually) {
  net::ChannelConfig slow;
  slow.one_way_latency_us = 200;
  ScenarioHarness h(slow);
  ScenarioA sa(h);
  fhir::ObservationGenerator gen(9);
  datablinder::Stopwatch sw;
  sa.insert_document(gen.next());
  // put = 1 round trip = >= 2 x 200us.
  EXPECT_GE(sw.elapsed_us(), 380.0);
}

TEST(ScenarioTest, MinMaxAggregatesThroughGateway) {
  ScenarioHarness h;
  core::Gateway gateway(h.rpc, h.kms, h.local_store, shared_registry(),
                        core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});

  schema::Schema s("vitals");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  f.aggregates = {schema::Aggregate::kMin, schema::Aggregate::kMax};
  s.field("bpm", f);
  gateway.register_schema(s);

  for (std::int64_t bpm : {72, 55, 140, 98}) {
    Document d;
    d.set("bpm", Value(bpm));
    gateway.insert("vitals", d);
  }
  EXPECT_DOUBLE_EQ(gateway.aggregate("vitals", "bpm", schema::Aggregate::kMin).value, 55);
  EXPECT_DOUBLE_EQ(gateway.aggregate("vitals", "bpm", schema::Aggregate::kMax).value, 140);
}

}  // namespace
}  // namespace datablinder::workload
