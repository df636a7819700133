// Exec-subsystem tests: the gateway's operation pipeline (stage timing,
// step-failure propagation), batched candidate retrieval (doc.mget), and
// tactic-parameter parsing.
#include <gtest/gtest.h>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "fhir/observation.hpp"
#include "store/docstore.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

// --- store-level batched lookup ---------------------------------------------

TEST(MultiGetTest, ReturnsPartialResultsInRequestOrder) {
  store::Collection col("c");
  for (int i = 0; i < 3; ++i) {
    Document d;
    d.id = "id" + std::to_string(i);
    d.set("n", Value(std::int64_t{i}));
    col.put(std::move(d));
  }
  std::vector<Document> found;
  col.visit_many({"id2", "missing-a", "id0", "missing-b", "id1"},
                 [&](const Document& d) { found.push_back(d); });
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].id, "id2");
  EXPECT_EQ(found[1].id, "id0");
  EXPECT_EQ(found[2].id, "id1");
  EXPECT_EQ(found[0].at("n").as_int(), 2);
}

TEST(MultiGetTest, EmptyRequestReturnsEmpty) {
  store::Collection col("c");
  bool visited = false;
  col.visit_many({}, [&](const Document&) { visited = true; });
  EXPECT_FALSE(visited);
}

// --- wire-level doc.mget ------------------------------------------------------

struct Rig {
  Rig() : rpc(cloud.rpc(), channel) {}
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
};

TEST(MultiGetTest, RpcSkipsVanishedIds) {
  Rig rig;
  for (int i = 0; i < 3; ++i) {
    rig.rpc.call("doc.put",
                 core::wire::pack({{"col", Value("c")},
                                   {"id", Value("d" + std::to_string(i))},
                                   {"blob", Value(Bytes{1, 2, 3})}}));
  }
  doc::Array ids;
  for (const char* id : {"d0", "gone", "d2"}) ids.emplace_back(std::string(id));
  const Bytes reply = rig.rpc.call(
      "doc.mget", core::wire::pack({{"col", Value("c")}, {"ids", Value(ids)}}));
  const doc::Object resp = core::wire::unpack(reply);
  const doc::Array& docs = core::wire::get_arr(resp, "docs");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(core::wire::get_str(docs[0].as_object(), "id"), "d0");
  EXPECT_EQ(core::wire::get_str(docs[1].as_object(), "id"), "d2");
}

// --- gateway-level round-trip accounting -------------------------------------

schema::Schema det_only_schema(const std::string& name) {
  schema::Schema s(name);
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kString;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;
  f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
  s.field("name", f);
  return s;
}

TEST(BatchedResolutionTest, KCandidateSearchIsOneFetchRoundTrip) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));
  ASSERT_EQ(gw.plan("people").fields.at("name").eq_tactic, "DET");

  constexpr int k = 8;
  for (int i = 0; i < k; ++i) {
    Document d;
    d.set("name", Value("popular"));
    gw.insert("people", d);
  }

  const std::uint64_t before = rig.channel.stats().round_trips.load();
  const auto hits = gw.equality_search("people", "name", Value("popular"));
  const std::uint64_t used = rig.channel.stats().round_trips.load() - before;
  EXPECT_EQ(hits.size(), static_cast<std::size_t>(k));
  // One det.search + ONE doc.mget for all k candidates — not k doc.gets.
  EXPECT_EQ(used, 2u);
}

TEST(BatchedResolutionTest, VanishedCandidatesAreSkippedLikeTheOldLoop) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));

  std::vector<DocId> ids;
  for (int i = 0; i < 4; ++i) {
    Document d;
    d.set("name", Value("v"));
    ids.push_back(gw.insert("people", d));
  }
  // Delete one document behind the index's back: the index still lists it.
  rig.rpc.call("doc.del",
               core::wire::pack({{"col", Value("people")}, {"id", Value(ids[1])}}));

  const auto hits = gw.equality_search("people", "name", Value("v"));
  EXPECT_EQ(hits.size(), 3u);  // partial result, no throw
  for (const auto& d : hits) EXPECT_NE(d.id, ids[1]);
}

TEST(BatchedResolutionTest, PipelineStagesAreTimed) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry,
                   core::GatewayConfig{{{"paillier_modulus_bits", "256"},
                                        {"sophos_modulus_bits", "512"}}});
  gw.register_schema(det_only_schema("people"));

  Document d;
  d.set("name", Value("x"));
  gw.insert("people", d);
  gw.equality_search("people", "name", Value("x"));

  // The Fig. 1 perf reification covers the core pipeline itself.
  using core::TacticOperation;
  EXPECT_EQ(gw.perf().stats("core.store", TacticOperation::kInsert).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.index", TacticOperation::kInsert).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.index", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.resolve", TacticOperation::kEqualitySearch).count, 1u);
  EXPECT_EQ(gw.perf().stats("core.verify", TacticOperation::kEqualitySearch).count, 1u);
  // Tactic-level series are still recorded.
  EXPECT_EQ(gw.perf().stats("DET", TacticOperation::kInsert).count, 1u);

  // Every other stage series perfbench's per-layer ledger reads, one op of
  // each family over the §5.1 policy.
  gw.register_schema(fhir::observation_schema("obs"));
  Document o;
  o.set("identifier", Value(std::int64_t{1}));
  o.set("status", Value("final"));
  o.set("code", Value("glucose"));
  o.set("subject", Value("Alice"));
  o.set("effective", Value(std::int64_t{100}));
  o.set("issued", Value(std::int64_t{1100}));
  o.set("performer", Value("Dr. Smith"));
  o.set("value", Value(5.0));
  o.set("interpretation", Value("Normal"));
  const DocId id = gw.insert("obs", o);
  core::FieldBoolQuery q;  // two disjuncts: the index stage fans out
  q.dnf.push_back({{"status", Value("final")}});
  q.dnf.push_back({{"subject", Value("Alice")}});
  EXPECT_EQ(gw.boolean_search("obs", q).size(), 1u);
  EXPECT_EQ(gw.range_search("obs", "effective", Value(std::int64_t{0}),
                            Value(std::int64_t{200}))
                .size(),
            1u);
  EXPECT_EQ(gw.aggregate("obs", "value", schema::Aggregate::kAverage).count, 1u);
  EXPECT_EQ(gw.read("obs", id).id, id);
  gw.remove("obs", id);

  const auto count = [&](const char* stage, TacticOperation op) {
    return gw.perf().stats(stage, op).count;
  };
  EXPECT_EQ(count("core.store", TacticOperation::kInsert), 2u);
  EXPECT_EQ(count("core.index", TacticOperation::kInsert), 2u);
  for (const TacticOperation op :
       {TacticOperation::kBooleanSearch, TacticOperation::kRangeQuery}) {
    EXPECT_EQ(count("core.index", op), 1u) << to_string(op);
    EXPECT_EQ(count("core.resolve", op), 1u) << to_string(op);
    EXPECT_EQ(count("core.verify", op), 1u) << to_string(op);
  }
  EXPECT_EQ(count("core.aggregate", TacticOperation::kAverage), 1u);
  EXPECT_EQ(count("core.retrieve", TacticOperation::kRead), 1u);
  EXPECT_EQ(count("core.retrieve", TacticOperation::kDelete), 1u);
  EXPECT_EQ(count("core.unindex", TacticOperation::kDelete), 1u);
  EXPECT_EQ(count("core.delete", TacticOperation::kDelete), 1u);
}

// --- GatewayContext::param_int ------------------------------------------------

TEST(ParamIntTest, ParsesValidAndFallsBack) {
  core::GatewayContext ctx;
  ctx.params["bits"] = "256";
  EXPECT_EQ(ctx.param_int("bits", 7), 256);
  EXPECT_EQ(ctx.param_int("absent", 7), 7);
}

TEST(ParamIntTest, MalformedValuesBecomeTypedErrors) {
  core::GatewayContext ctx;
  ctx.params["bits"] = "not-a-number";
  ctx.params["trail"] = "12abc";
  ctx.params["huge"] = "99999999999999999999";
  ctx.params["empty"] = "";
  for (const char* name : {"bits", "trail", "huge", "empty"}) {
    try {
      ctx.param_int(name, 0);
      FAIL() << "expected kInvalidArgument for param " << name;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << "error must name the parameter";
    }
  }
}

// --- step error propagation --------------------------------------------------

TEST(ExecutorTest, StepFailureSurfacesOnCallingThread) {
  Rig rig;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rig.rpc, rig.kms, rig.local, registry, {});
  gw.register_schema(det_only_schema("people"));

  // Close the channel: the doc.put of the store stage must fail and the
  // error must reach the caller as the original typed Error.
  rig.channel.close();
  Document d;
  d.set("name", Value("x"));
  try {
    gw.insert("people", d);
    FAIL() << "expected kUnavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  rig.channel.reopen();
  EXPECT_NO_THROW(gw.insert("people", d));
}

}  // namespace
}  // namespace datablinder
