// Read-path equivalence: an equality search is a one-term boolean search.
// Over the §5.1 FHIR policy, for a field with its own equality slot
// (subject: Mitra) and a field folded into the boolean tactic (status:
// BIEX-2Lev), equality_search(f, v) and boolean_search({{{f, v}}}) return
// the same documents in the same order, put the same bytes and round trips
// on the wire, and each records its pipeline stages under its own op. A
// disjunction whose disjuncts overlap returns each document once, in the
// order it was first seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"

namespace datablinder::core {
namespace {

using doc::Document;
using doc::Value;

class ReadPathTest : public ::testing::Test {
 protected:
  ReadPathTest()
      : rpc_(cloud_.rpc(), channel_),
        gateway_(rpc_, kms_, local_, registry(), GatewayConfig{{{"paillier_modulus_bits", "256"}}}) {
    gateway_.register_schema(fhir::observation_schema("obs"));
    fhir::ObservationGenerator gen(4242);
    for (int i = 0; i < 48; ++i) {
      Document d = gen.next();
      d.id = "obs-" + std::to_string(i);
      gateway_.insert("obs", d);
      corpus_.push_back(std::move(d));
    }
  }

  static const TacticRegistry& registry() {
    static const TacticRegistry r = [] {
      TacticRegistry reg;
      register_builtin_tactics(reg);
      return reg;
    }();
    return r;
  }

  struct Wire {
    std::uint64_t round_trips, bytes_sent, bytes_received;
    bool operator==(const Wire&) const = default;
  };

  /// Runs `search` and returns its ids with the wire traffic it caused.
  template <typename Search>
  std::pair<std::vector<DocId>, Wire> traced(Search search) {
    channel_.stats().reset();
    std::vector<DocId> ids;
    for (const Document& d : search()) ids.push_back(d.id);
    const net::ChannelStats& s = channel_.stats();
    return {ids, Wire{s.round_trips.load(), s.bytes_sent.load(), s.bytes_received.load()}};
  }

  /// How often `op` has recorded each of the three read stages.
  std::vector<std::uint64_t> stage_counts(TacticOperation op) const {
    std::vector<std::uint64_t> counts;
    for (const char* stage : {"core.index", "core.resolve", "core.verify"}) {
      counts.push_back(gateway_.perf().stats(stage, op).count);
    }
    return counts;
  }

  CloudNode cloud_;
  net::Channel channel_;
  net::RpcClient rpc_;
  kms::KeyManager kms_;
  store::KvStore local_;
  Gateway gateway_;
  std::vector<Document> corpus_;
};

TEST_F(ReadPathTest, EqualityIsAOneTermBooleanSearch) {
  EXPECT_FALSE(gateway_.plan("obs").fields.at("subject").boolean_member);
  EXPECT_TRUE(gateway_.plan("obs").fields.at("status").boolean_member);

  fhir::ObservationGenerator probes(7);
  std::size_t matched = 0;
  for (int i = 0; i < 6; ++i) {
    const std::pair<const char*, Value> terms[] = {{"subject", probes.random_subject()},
                                                   {"status", probes.random_status()}};
    for (const auto& [field, value] : terms) {
      const auto eq_before = stage_counts(TacticOperation::kEqualitySearch);
      const auto bool_before = stage_counts(TacticOperation::kBooleanSearch);

      const auto [eq_ids, eq_wire] =
          traced([&] { return gateway_.equality_search("obs", field, value); });
      EXPECT_EQ(stage_counts(TacticOperation::kBooleanSearch), bool_before) << field;

      FieldBoolQuery q;
      q.dnf.push_back({{field, value}});
      const auto [bool_ids, bool_wire] = traced([&] { return gateway_.boolean_search("obs", q); });

      EXPECT_EQ(bool_ids, eq_ids) << field;
      EXPECT_EQ(bool_wire, eq_wire) << field;
      EXPECT_EQ(eq_wire.round_trips, 2u) << field;  // one index query, one doc.mget
      const auto eq_after = stage_counts(TacticOperation::kEqualitySearch);
      const auto bool_after = stage_counts(TacticOperation::kBooleanSearch);
      for (std::size_t s = 0; s < eq_after.size(); ++s) {
        EXPECT_EQ(eq_after[s], eq_before[s] + 1) << field << " stage " << s;
        EXPECT_EQ(bool_after[s], bool_before[s] + 1) << field << " stage " << s;
      }
      matched += eq_ids.size();
    }
  }
  EXPECT_GE(matched, 20u);
}

TEST_F(ReadPathTest, OverlappingDisjunctsKeepFirstSeenOrder) {
  // subject S OR status final, for the subject S of a final document: the
  // documents matching both come from the first disjunct, and the second
  // adds only the ones not yet seen.
  const auto final_doc = std::find_if(corpus_.begin(), corpus_.end(), [](const Document& d) {
    return d.at("status").as_string() == "final";
  });
  ASSERT_NE(final_doc, corpus_.end());
  const Value& s = final_doc->at("subject");
  const std::vector<Document> subject = gateway_.equality_search("obs", "subject", s);
  const std::vector<Document> status = gateway_.equality_search("obs", "status", Value("final"));
  std::vector<DocId> expected;
  std::set<DocId> seen;
  std::size_t overlap = 0;
  for (const auto* hits : {&subject, &status}) {
    for (const Document& d : *hits) {
      if (seen.insert(d.id).second) {
        expected.push_back(d.id);
      } else {
        ++overlap;
      }
    }
  }
  ASSERT_GT(overlap, 0u);
  ASSERT_GT(expected.size(), subject.size());

  FieldBoolQuery q;
  q.dnf.push_back({{"subject", s}});
  q.dnf.push_back({{"status", Value("final")}});
  std::vector<DocId> ids;
  for (const Document& d : gateway_.boolean_search("obs", q)) ids.push_back(d.id);
  EXPECT_EQ(ids, expected);
}

}  // namespace
}  // namespace datablinder::core
