// End-to-end tests of the Gateway API (Entities interface) against a
// CloudNode over the simulated channel, exercising every tactic the §5.1
// policy selects.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "fhir/observation.hpp"

namespace datablinder::core {
namespace {

using doc::Document;
using doc::Value;

class GatewayFixture : public ::testing::Test {
 protected:
  static GatewayConfig default_config() {
    return GatewayConfig{{{"paillier_modulus_bits", "256"},
                          {"sophos_modulus_bits", "512"}}};
  }

  explicit GatewayFixture(GatewayConfig config = default_config())
      : rpc_(cloud_.rpc(), channel_),
        gateway_(rpc_, kms_, local_, registry_, std::move(config)) {
    register_builtin_tactics(registry_);
  }

  void register_observation_schema() {
    gateway_.register_schema(fhir::observation_schema("obs"));
  }

  Document make_obs(const std::string& status, const std::string& code,
                    const std::string& subject, std::int64_t effective,
                    double value) {
    Document d;
    d.set("identifier", Value(std::int64_t{1}));
    d.set("status", Value(status));
    d.set("code", Value(code));
    d.set("subject", Value(subject));
    d.set("effective", Value(effective));
    d.set("issued", Value(effective + 1000));
    d.set("performer", Value("Dr. Smith"));
    d.set("value", Value(value));
    d.set("interpretation", Value("Normal"));
    return d;
  }

  CloudNode cloud_;
  net::Channel channel_;
  net::RpcClient rpc_;
  kms::KeyManager kms_;
  store::KvStore local_;
  TacticRegistry registry_;
  Gateway gateway_;
};

TEST_F(GatewayFixture, PolicySelectionMatchesPaperTable) {
  register_observation_schema();
  const CollectionPlan& plan = gateway_.plan("obs");

  // §5.1 selection table.
  EXPECT_EQ(plan.boolean_tactic, "BIEX-2Lev");
  EXPECT_TRUE(plan.fields.at("status").boolean_member);
  EXPECT_TRUE(plan.fields.at("code").boolean_member);
  EXPECT_EQ(plan.fields.at("subject").eq_tactic, "Mitra");
  EXPECT_EQ(plan.fields.at("effective").eq_tactic, "DET");
  EXPECT_EQ(plan.fields.at("effective").range_tactic, "OPE");
  EXPECT_EQ(plan.fields.at("issued").eq_tactic, "DET");
  EXPECT_EQ(plan.fields.at("issued").range_tactic, "OPE");
  EXPECT_EQ(plan.fields.at("performer").tactics, std::vector<std::string>{"RND"});
  EXPECT_TRUE(plan.fields.at("value").boolean_member);
  EXPECT_EQ(plan.fields.at("value").agg_tactic, "Paillier");
}

TEST_F(GatewayFixture, InsertReadRoundTrip) {
  register_observation_schema();
  Document d = make_obs("final", "glucose", "John Doe", 1359966610, 6.3);
  const DocId id = gateway_.insert("obs", d);
  EXPECT_FALSE(id.empty());

  const Document back = gateway_.read("obs", id);
  EXPECT_EQ(back.at("status").as_string(), "final");
  EXPECT_EQ(back.at("subject").as_string(), "John Doe");
  EXPECT_DOUBLE_EQ(back.at("value").as_double(), 6.3);
}

TEST_F(GatewayFixture, ReadUnknownIdThrows) {
  register_observation_schema();
  EXPECT_THROW(gateway_.read("obs", "nope"), Error);
}

TEST_F(GatewayFixture, SchemaValidationRejectsBadDocuments) {
  register_observation_schema();
  Document d = make_obs("final", "glucose", "John Doe", 1, 1.0);
  d.set("unknown_field", Value("x"));
  EXPECT_THROW(gateway_.insert("obs", d), Error);

  Document d2 = make_obs("final", "glucose", "John Doe", 1, 1.0);
  d2.set("status", Value(std::int64_t{42}));  // type mismatch
  EXPECT_THROW(gateway_.insert("obs", d2), Error);
}

TEST_F(GatewayFixture, EqualitySearchViaMitra) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Bob", 200, 6.0));
  gateway_.insert("obs", make_obs("amended", "sodium", "Alice", 300, 7.0));

  const auto alice = gateway_.equality_search("obs", "subject", Value("Alice"));
  EXPECT_EQ(alice.size(), 2u);
  for (const auto& d : alice) EXPECT_EQ(d.at("subject").as_string(), "Alice");

  EXPECT_TRUE(gateway_.equality_search("obs", "subject", Value("Nobody")).empty());

  // A keyword update after a search advances Mitra's counter; the next
  // search derives the longer address chain and finds the new document.
  gateway_.insert("obs", make_obs("final", "sodium", "Alice", 400, 8.0));
  EXPECT_EQ(gateway_.equality_search("obs", "subject", Value("Alice")).size(), 3u);
}

TEST_F(GatewayFixture, EqualityFoldedIntoBoolean) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("amended", "glucose", "Bob", 200, 6.0));

  // status has no dedicated eq tactic: equality goes through BIEX-2Lev.
  const auto finals = gateway_.equality_search("obs", "status", Value("final"));
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0].at("subject").as_string(), "Alice");
}

TEST_F(GatewayFixture, BooleanConjunctionAcrossFields) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "sodium", "Bob", 200, 6.0));
  gateway_.insert("obs", make_obs("amended", "glucose", "Carol", 300, 7.0));

  FieldBoolQuery q;
  q.dnf.push_back({{"status", Value("final")}, {"code", Value("glucose")}});
  const auto hits = gateway_.boolean_search("obs", q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].at("subject").as_string(), "Alice");
}

TEST_F(GatewayFixture, BooleanDisjunction) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("amended", "sodium", "Bob", 200, 6.0));
  gateway_.insert("obs", make_obs("preliminary", "potassium", "Carol", 300, 7.0));

  FieldBoolQuery q;
  q.dnf.push_back({{"code", Value("glucose")}});
  q.dnf.push_back({{"code", Value("sodium")}});
  const auto hits = gateway_.boolean_search("obs", q);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(GatewayFixture, BooleanMixesSseAndDetTerms) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Bob", 100, 6.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Carol", 999, 7.0));

  // status/code are BIEX members; effective resolves through DET equality.
  FieldBoolQuery q;
  q.dnf.push_back({{"status", Value("final")},
                   {"effective", Value(std::int64_t{100})}});
  const auto hits = gateway_.boolean_search("obs", q);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(GatewayFixture, RangeSearchViaOpe) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Bob", 500, 6.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Carol", 900, 7.0));

  const auto hits = gateway_.range_search("obs", "effective", Value(std::int64_t{200}),
                                          Value(std::int64_t{800}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].at("subject").as_string(), "Bob");

  // Inclusive bounds.
  EXPECT_EQ(gateway_
                .range_search("obs", "effective", Value(std::int64_t{100}),
                              Value(std::int64_t{900}))
                .size(),
            3u);
}

TEST_F(GatewayFixture, AverageViaPaillier) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Bob", 200, 6.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Carol", 300, 7.0));

  const AggregateResult avg = gateway_.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, 3u);
  EXPECT_NEAR(avg.value, 6.0, 1e-9);

  const AggregateResult sum = gateway_.aggregate("obs", "value", schema::Aggregate::kSum);
  EXPECT_NEAR(sum.value, 18.0, 1e-9);
}

TEST_F(GatewayFixture, DeleteRemovesFromAllIndexes) {
  register_observation_schema();
  const DocId keep = gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  const DocId gone = gateway_.insert("obs", make_obs("final", "glucose", "Bob", 500, 9.0));

  gateway_.remove("obs", gone);

  EXPECT_THROW(gateway_.read("obs", gone), Error);
  EXPECT_EQ(gateway_.equality_search("obs", "subject", Value("Bob")).size(), 0u);
  EXPECT_EQ(gateway_.equality_search("obs", "status", Value("final")).size(), 1u);
  EXPECT_EQ(gateway_
                .range_search("obs", "effective", Value(std::int64_t{0}),
                              Value(std::int64_t{1000}))
                .size(),
            1u);
  const auto avg = gateway_.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, 1u);
  EXPECT_NEAR(avg.value, 5.0, 1e-9);
  (void)keep;
}

TEST_F(GatewayFixture, UpdateReplacesDocumentAndIndexes) {
  register_observation_schema();
  const DocId id = gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));

  Document updated = make_obs("amended", "sodium", "Alice", 700, 8.0);
  updated.id = id;
  gateway_.update("obs", updated);

  EXPECT_EQ(gateway_.read("obs", id).at("status").as_string(), "amended");
  EXPECT_TRUE(gateway_.equality_search("obs", "status", Value("final")).empty());
  EXPECT_EQ(gateway_.equality_search("obs", "status", Value("amended")).size(), 1u);
  EXPECT_EQ(gateway_
                .range_search("obs", "effective", Value(std::int64_t{600}),
                              Value(std::int64_t{800}))
                .size(),
            1u);
}

TEST_F(GatewayFixture, UnsearchableFieldRejected) {
  register_observation_schema();
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  // performer is C1 insert-only: no equality tactic.
  EXPECT_THROW(gateway_.equality_search("obs", "performer", Value("Dr. Smith")), Error);
  // subject has no range tactic.
  EXPECT_THROW(gateway_.range_search("obs", "subject", Value("A"), Value("Z")), Error);
  // status has no aggregate tactic.
  EXPECT_THROW(gateway_.aggregate("obs", "status", schema::Aggregate::kSum), Error);
}

TEST_F(GatewayFixture, DuplicateSchemaRejected) {
  register_observation_schema();
  EXPECT_THROW(register_observation_schema(), Error);
}

TEST_F(GatewayFixture, UnknownCollectionRejected) {
  EXPECT_THROW(gateway_.read("nope", "id"), Error);
  EXPECT_THROW(gateway_.plan("nope"), Error);
}

TEST_F(GatewayFixture, BenchmarkSchemaSelectsPaperTactics) {
  gateway_.register_schema(fhir::benchmark_schema("bench"));
  const CollectionPlan& plan = gateway_.plan("bench");
  // §5.2: Mitra, RND, Paillier and five DETs.
  EXPECT_EQ(plan.boolean_tactic, "");
  int det_count = 0;
  for (const auto& [field, fp] : plan.fields) {
    det_count += std::count(fp.tactics.begin(), fp.tactics.end(), std::string("DET"));
  }
  EXPECT_EQ(det_count, 5);
  EXPECT_EQ(plan.fields.at("subject").eq_tactic, "Mitra");
  EXPECT_EQ(plan.fields.at("performer").tactics, std::vector<std::string>{"RND"});
  EXPECT_EQ(plan.fields.at("value").agg_tactic, "Paillier");
}

TEST_F(GatewayFixture, NoPlaintextCrossesTheChannel) {
  // Leakage smoke test: marker strings from inserted documents must never
  // appear in any byte that crossed the gateway->cloud channel.
  register_observation_schema();

  // Capture all request payloads by wrapping the RPC server dispatch: the
  // CloudNode stores only what crossed the wire, so scan its storage plus
  // a fresh search round trip.
  const std::string marker_subject = "ZZuniquesubjectZZ";
  Document d = make_obs("final", "glucose", marker_subject, 123456, 6.25);
  d.set("performer", Value("ZZsecretperformerZZ"));
  const DocId id = gateway_.insert("obs", d);

  // The stored blob (exactly what crossed the wire) must not contain the
  // plaintext markers: documents are AEAD blobs, indexes are PRF labels.
  doc::Object probe;
  probe["col"] = doc::Value("obs");
  probe["id"] = doc::Value(id);
  const Bytes reply = rpc_.call("doc.get", doc::encode_value(doc::Value(probe)));
  const std::string wire(reply.begin(), reply.end());
  EXPECT_EQ(wire.find(marker_subject), std::string::npos);
  EXPECT_EQ(wire.find("ZZsecretperformerZZ"), std::string::npos);

  // And the document still round-trips.
  EXPECT_EQ(gateway_.read("obs", id).at("subject").as_string(), marker_subject);
}

TEST_F(GatewayFixture, RangeResolveKeepsOpeOrderAndSkipsVanishedIds) {
  register_observation_schema();
  // Inserted out of order; OPE returns range candidates by effective.
  DocId vanished;
  for (const auto& [subject, effective] :
       std::vector<std::pair<std::string, std::int64_t>>{
           {"F", 600}, {"A", 100}, {"D", 400}, {"B", 200}, {"E", 500}, {"C", 300}}) {
    const DocId id =
        gateway_.insert("obs", make_obs("final", "glucose", subject, effective, 1.0));
    if (subject == "E") vanished = id;
  }
  // Delete E behind the index's back: the index still lists it, doc.mget
  // no longer returns it.
  rpc_.call("doc.del", wire::pack({{"col", Value("obs")}, {"id", Value(vanished)}}));

  const auto docs = gateway_.range_search("obs", "effective", Value(std::int64_t{0}),
                                          Value(std::int64_t{1000}));
  std::vector<std::string> subjects;
  for (const auto& d : docs) subjects.push_back(d.at("subject").as_string());
  EXPECT_EQ(subjects, (std::vector<std::string>{"A", "B", "C", "D", "F"}));
}

TEST_F(GatewayFixture, DefaultConfigHasNoCostModel) {
  // Byte-identical-off guarantee: adaptive selection is strictly opt-in,
  // so a default-config gateway takes the static paths.
  EXPECT_EQ(gateway_.cost_model(), nullptr);
}

// --- Adaptive planning --------------------------------------------------------

class AdaptiveGatewayFixture : public GatewayFixture {
 protected:
  static GatewayConfig adaptive_config() {
    GatewayConfig cfg = default_config();
    cfg.adaptive_selection = true;
    return cfg;
  }

  AdaptiveGatewayFixture() : GatewayFixture(adaptive_config()) {
    register_observation_schema();
  }
};

TEST_F(AdaptiveGatewayFixture, AdaptivePlanningKeepsResultsCorrect) {
  gateway_.insert("obs", make_obs("final", "glucose", "Alice", 100, 5.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Bob", 500, 6.0));
  gateway_.insert("obs", make_obs("final", "glucose", "Carol", 900, 7.0));
  ASSERT_NE(gateway_.cost_model(), nullptr);

  // Whatever the cost model picks — OPE, ORE, RangeBRC or the post-filter
  // plan — the result set must match the static answer, every time.
  for (int i = 0; i < 8; ++i) {
    const auto hits = gateway_.range_search(
        "obs", "effective", Value(std::int64_t{200}), Value(std::int64_t{800}));
    ASSERT_EQ(hits.size(), 1u) << "query " << i;
    EXPECT_EQ(hits[0].at("subject").as_string(), "Bob") << "query " << i;
  }

  // The plan carries the live annotation the selection table renders.
  const CollectionPlan& plan = gateway_.plan("obs");
  const FieldPlan& fp = plan.fields.at("effective");
  EXPECT_FALSE(fp.range_last_choice.empty());
  EXPECT_TRUE(fp.range_chosen_by == "static" || fp.range_chosen_by == "cost-model" ||
              fp.range_chosen_by == "hysteresis-hold")
      << fp.range_chosen_by;
  EXPECT_NE(plan.to_table().find(fp.range_chosen_by), std::string::npos);

  // And the other query families still resolve through their tactics.
  EXPECT_EQ(gateway_.equality_search("obs", "subject", Value("Alice")).size(), 1u);
  const AggregateResult avg =
      gateway_.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, 3u);
  EXPECT_NEAR(avg.value, 6.0, 1e-9);
}

}  // namespace
}  // namespace datablinder::core
