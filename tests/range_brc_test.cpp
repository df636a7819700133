// RangeBRC tests: dyadic interval algebra, best-range-cover exactness,
// scheme-level search correctness, and end-to-end gateway behaviour
// (including the policy gap it fills: range queries below Class 5).
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "sse/range_brc.hpp"

namespace datablinder {
namespace {

using doc::Document;
using doc::Value;
using sse::best_range_cover;
using sse::DyadicInterval;
using sse::dyadic_path;

TEST(DyadicTest, PathContainsValueAtEveryLevel) {
  const std::uint64_t x = 0xdeadbeefcafef00dULL;
  const auto path = dyadic_path(x);
  ASSERT_EQ(path.size(), 64u);
  for (const auto& node : path) {
    EXPECT_LE(node.lo(), x);
    EXPECT_GE(node.hi(), x);
  }
  EXPECT_EQ(path[0].lo(), x);  // level 0 is the point itself
  EXPECT_EQ(path[0].hi(), x);
}

TEST(DyadicTest, KeywordsAreCollisionFreeAcrossLevels) {
  // prefix 5 at level 3 must differ from prefix 5 at level 4.
  EXPECT_NE((DyadicInterval{3, 5}).keyword("s"), (DyadicInterval{4, 5}).keyword("s"));
  EXPECT_NE((DyadicInterval{3, 5}).keyword("a"), (DyadicInterval{3, 5}).keyword("b"));
}

TEST(BestRangeCoverTest, ExactTilingOnKnownRanges) {
  struct Case {
    std::uint64_t lo, hi;
  };
  const Case cases[] = {
      {0, 0},   {5, 5},        {0, 7},          {1, 6},
      {3, 17},  {0, UINT64_MAX}, {UINT64_MAX, UINT64_MAX},
      {1, UINT64_MAX},          {0, UINT64_MAX - 1},
  };
  for (const auto& c : cases) {
    const auto cover = best_range_cover(c.lo, c.hi);
    // Exactness: contiguous, disjoint, spanning precisely [lo, hi].
    ASSERT_FALSE(cover.empty());
    EXPECT_EQ(cover.front().lo(), c.lo);
    EXPECT_EQ(cover.back().hi(), c.hi);
    for (std::size_t i = 0; i + 1 < cover.size(); ++i) {
      EXPECT_EQ(cover[i].hi() + 1, cover[i + 1].lo());
    }
    // Best-range-cover bound: at most 2 nodes per level => <= 128.
    EXPECT_LE(cover.size(), 128u);
  }
}

TEST(BestRangeCoverTest, RandomizedExactness) {
  DetRng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t a = rng.engine()();
    std::uint64_t b = rng.engine()();
    if (a > b) std::swap(a, b);
    const auto cover = best_range_cover(a, b);
    EXPECT_EQ(cover.front().lo(), a);
    EXPECT_EQ(cover.back().hi(), b);
    for (std::size_t i = 0; i + 1 < cover.size(); ++i) {
      EXPECT_EQ(cover[i].hi() + 1, cover[i + 1].lo()) << trial;
    }
    EXPECT_LE(cover.size(), 128u);
  }
}

TEST(BestRangeCoverTest, SmallDomainEnumeration) {
  // Exhaustive over an 6-bit sub-domain: membership via the cover equals
  // plain interval membership for every (lo, hi, x).
  for (std::uint64_t lo = 0; lo < 64; lo += 7) {
    for (std::uint64_t hi = lo; hi < 64; hi += 5) {
      const auto cover = best_range_cover(lo, hi);
      for (std::uint64_t x = 0; x < 64; ++x) {
        bool in_cover = false;
        for (const auto& node : cover) {
          if (x >= node.lo() && x <= node.hi()) {
            in_cover = true;
            break;
          }
        }
        EXPECT_EQ(in_cover, x >= lo && x <= hi) << lo << " " << hi << " " << x;
      }
    }
  }
}

TEST(BestRangeCoverTest, RejectsInvertedRange) {
  EXPECT_THROW(best_range_cover(5, 4), Error);
}

TEST(RangeBrcSchemeTest, SearchMatchesReference) {
  sse::RangeBrcClient client(Bytes(32, 1), "obs.effective");
  sse::MitraServer server;
  DetRng rng(7);
  std::vector<std::pair<std::string, std::uint64_t>> reference;
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t x = rng.uniform(100000);
    const std::string id = "doc" + std::to_string(i);
    for (const auto& token : client.update(sse::UpdateOp::kAdd, x, id)) {
      server.apply_update(token);
    }
    reference.emplace_back(id, x);
  }
  for (int trial = 0; trial < 25; ++trial) {
    std::uint64_t lo = rng.uniform(100000);
    std::uint64_t hi = rng.uniform(100000);
    if (lo > hi) std::swap(lo, hi);
    std::set<std::string> expected;
    for (const auto& [id, x] : reference) {
      if (x >= lo && x <= hi) expected.insert(id);
    }
    std::set<std::string> actual;
    const auto query = client.range_query(lo, hi);
    for (std::size_t i = 0; i < query.tokens.size(); ++i) {
      for (auto& id :
           client.resolve(query.keywords[i], server.search(query.tokens[i]))) {
        actual.insert(std::move(id));
      }
    }
    EXPECT_EQ(actual, expected) << "[" << lo << "," << hi << "]";
  }
}

TEST(RangeBrcSchemeTest, DeletionsFoldAcrossAllLevels) {
  sse::RangeBrcClient client(Bytes(32, 2), "s");
  sse::MitraServer server;
  for (const auto& t : client.update(sse::UpdateOp::kAdd, 500, "a")) server.apply_update(t);
  for (const auto& t : client.update(sse::UpdateOp::kAdd, 600, "b")) server.apply_update(t);
  for (const auto& t : client.update(sse::UpdateOp::kDelete, 500, "a")) {
    server.apply_update(t);
  }
  const auto query = client.range_query(0, 1000);
  std::set<std::string> actual;
  for (std::size_t i = 0; i < query.tokens.size(); ++i) {
    for (auto& id : client.resolve(query.keywords[i], server.search(query.tokens[i]))) {
      actual.insert(std::move(id));
    }
  }
  EXPECT_EQ(actual, (std::set<std::string>{"b"}));
}

// --- middleware level ------------------------------------------------------------

TEST(RangeBrcGatewayTest, Class3RangeQueriesWork) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rpc, kms, local, registry, {});

  schema::Schema s("vitals");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass3;  // forbids OPE/ORE
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  s.field("bpm", f);
  gw.register_schema(s);
  ASSERT_EQ(gw.plan("vitals").fields.at("bpm").range_tactic, "RangeBRC");

  for (std::int64_t bpm : {55, 72, 98, 140, -10}) {  // negatives via ordered_key
    Document d;
    d.set("bpm", Value(bpm));
    gw.insert("vitals", d);
  }
  EXPECT_EQ(gw.range_search("vitals", "bpm", Value(std::int64_t{60}),
                            Value(std::int64_t{100}))
                .size(),
            2u);
  EXPECT_EQ(gw.range_search("vitals", "bpm", Value(std::int64_t{-20}),
                            Value(std::int64_t{60}))
                .size(),
            2u);  // -10 and 55

  // Delete removes from every dyadic level.
  const auto hits = gw.range_search("vitals", "bpm", Value(std::int64_t{140}),
                                    Value(std::int64_t{140}));
  ASSERT_EQ(hits.size(), 1u);
  gw.remove("vitals", hits[0].id);
  EXPECT_TRUE(gw.range_search("vitals", "bpm", Value(std::int64_t{100}),
                              Value(std::int64_t{200}))
                  .empty());
}

TEST(RangeBrcGatewayTest, Class5StillPrefersOpe) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gw(rpc, kms, local, registry, {});

  schema::Schema s("logs");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;  // order leakage admissible
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  s.field("ts", f);
  gw.register_schema(s);
  // Least protective admissible wins: OPE (cheaper) over RangeBRC.
  EXPECT_EQ(gw.plan("logs").fields.at("ts").range_tactic, "OPE");
}

TEST(RangeBrcGatewayTest, CountersPersistAcrossRestart) {
  const std::string aof = "/tmp/datablinder_brc_recovery.aof";
  std::remove(aof.c_str());
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 3);
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);

  schema::Schema s("vitals");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass3;
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  s.field("bpm", f);

  {
    kms::KeyManager kms(master);
    store::KvStore local(aof);
    core::Gateway gw(rpc, kms, local, registry, {});
    gw.register_schema(s);
    Document d;
    d.set("bpm", Value(std::int64_t{77}));
    gw.insert("vitals", d);
  }
  kms::KeyManager kms(master);
  store::KvStore local(aof);
  core::Gateway gw(rpc, kms, local, registry, {});
  gw.register_schema(s);
  EXPECT_EQ(gw.range_search("vitals", "bpm", Value(std::int64_t{70}),
                            Value(std::int64_t{80}))
                .size(),
            1u);
  std::remove(aof.c_str());
}

}  // namespace
}  // namespace datablinder
