// Property-based tests: randomized workloads where the encrypted system's
// answers are checked against a plaintext reference model, across tactic
// configurations (parameterized gtest sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/biexzmf_tactic.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/ore_tactic.hpp"
#include "fhir/observation.hpp"

namespace datablinder::core {
namespace {

using doc::Document;
using doc::Value;

TacticRegistry& registry() {
  static TacticRegistry r = [] {
    TacticRegistry reg;
    register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

GatewayConfig world_config(bool journal) {
  GatewayConfig cfg{{{"paillier_modulus_bits", "256"}}};
  cfg.journal_inserts = journal;
  return cfg;
}

/// A gateway world plus a plaintext mirror of everything inserted.
struct World {
  explicit World(bool journal = false)
      : rpc(cloud.rpc(), channel),
        gateway(rpc, kms, local, registry(), world_config(journal)) {
    gateway.register_schema(fhir::observation_schema("obs"));
  }

  DocId insert(Document d) {
    const DocId id = gateway.insert("obs", d);
    d.id = id;
    mirror[id] = std::move(d);
    return id;
  }

  void remove(const DocId& id) {
    gateway.remove("obs", id);
    mirror.erase(id);
  }

  std::set<DocId> reference_eq(const std::string& field, const Value& v) const {
    std::set<DocId> out;
    for (const auto& [id, d] : mirror) {
      if (d.has(field) && d.at(field) == v) out.insert(id);
    }
    return out;
  }

  std::set<DocId> reference_range(const std::string& field, std::int64_t lo,
                                  std::int64_t hi) const {
    std::set<DocId> out;
    for (const auto& [id, d] : mirror) {
      if (!d.has(field)) continue;
      const std::int64_t v = d.at(field).as_int();
      if (v >= lo && v <= hi) out.insert(id);
    }
    return out;
  }

  static std::set<DocId> ids_of(const std::vector<Document>& docs) {
    std::set<DocId> out;
    for (const auto& d : docs) out.insert(d.id);
    return out;
  }

  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
  Gateway gateway;
  std::map<DocId, Document> mirror;
};

class RandomWorkloadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkloadSweep, EncryptedAnswersMatchPlaintextReference) {
  World w;
  fhir::ObservationGenerator gen(GetParam());
  DetRng rng(GetParam() * 101 + 3);
  std::vector<DocId> live;

  for (int step = 0; step < 120; ++step) {
    const double roll = rng.real();
    if (roll < 0.5 || live.empty()) {
      live.push_back(w.insert(gen.next()));
    } else if (roll < 0.6) {
      const std::size_t pick = rng.uniform(live.size());
      w.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.75) {
      const Value v = gen.random_subject();
      EXPECT_EQ(World::ids_of(w.gateway.equality_search("obs", "subject", v)),
                w.reference_eq("subject", v));
    } else if (roll < 0.9) {
      const auto [lo, hi] = gen.random_effective_range();
      EXPECT_EQ(World::ids_of(w.gateway.range_search("obs", "effective", lo, hi)),
                w.reference_range("effective", lo.as_int(), hi.as_int()));
    } else {
      const Value v = gen.random_status();
      EXPECT_EQ(World::ids_of(w.gateway.equality_search("obs", "status", v)),
                w.reference_eq("status", v));
    }
  }

  // Final full cross-check of every query surface.
  for (const char* subject : {"John Doe", "Alice Martin", "Mia Dupont"}) {
    EXPECT_EQ(World::ids_of(w.gateway.equality_search("obs", "subject", Value(subject))),
              w.reference_eq("subject", Value(subject)));
  }
  double ref_sum = 0;
  for (const auto& [id, d] : w.mirror) ref_sum += d.at("value").as_double();
  const auto avg = w.gateway.aggregate("obs", "value", schema::Aggregate::kAverage);
  ASSERT_EQ(avg.count, w.mirror.size());
  if (!w.mirror.empty()) {
    EXPECT_NEAR(avg.value, ref_sum / static_cast<double>(w.mirror.size()), 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadSweep,
                         ::testing::Values(11, 22, 33, 44));

/// Every answer of one run of the write workload, in query order.
struct Answers {
  std::vector<std::set<DocId>> ids;
  std::vector<std::uint64_t> counts;
  bool operator==(const Answers&) const = default;
};

/// Records one id answer and checks it against the reference.
void expect_answer(Answers& out, const std::set<DocId>& got, const std::set<DocId>& want,
                   int step) {
  EXPECT_EQ(got, want) << "step " << step;
  out.ids.push_back(got);
}

/// A seeded insert/update/remove workload with fixed ids, checked against
/// the plaintext reference after every query. With `fault_every` > 0 (the
/// journal on), every fault_every-th update or removal loses its rpc.batch:
/// the write throws, and the interrupted intent then lands either through
/// recover_pending_inserts() or through a retry of the same write.
Answers run_write_workload(World& w, std::uint64_t seed, int fault_every) {
  Answers out;
  fhir::ObservationGenerator gen(seed);
  DetRng rng(seed * 31 + 5);
  std::vector<DocId> live;
  int next_id = 0, writes = 0, faults = 0;

  // Runs one update or removal, faulting its batch when its turn comes.
  auto mutate = [&](const std::function<void()>& write) {
    if (fault_every == 0 || ++writes % fault_every != 0) {
      write();
      return;
    }
    net::FaultPlan plan;
    plan.method_faults = {{"rpc.batch", /*skip=*/0, /*count=*/1}};
    w.channel.set_fault_plan(plan);
    try {
      write();
      ADD_FAILURE() << "write " << writes << " survived its batch fault";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
    }
    w.channel.clear_fault_plan();
    EXPECT_EQ(w.gateway.journal()->pending_count(), 1u);
    if (++faults % 2 == 0) {
      EXPECT_EQ(w.gateway.recover_pending_inserts(), 1u);
    } else {
      write();  // the retry resumes the pending intent first
    }
    EXPECT_EQ(w.gateway.journal()->pending_count(), 0u);
  };

  for (int step = 0; step < 90; ++step) {
    const double roll = rng.real();
    if (roll < 0.35 || live.size() < 3) {
      Document d = gen.next();
      d.id = "doc-" + std::to_string(next_id++);
      live.push_back(w.insert(std::move(d)));
    } else if (roll < 0.55) {
      Document d = gen.next();
      d.id = live[rng.uniform(live.size())];
      mutate([&] { w.gateway.update("obs", d); });
      w.mirror[d.id] = d;
    } else if (roll < 0.65) {
      const std::size_t pick = rng.uniform(live.size());
      const DocId id = live[pick];
      mutate([&] { w.gateway.remove("obs", id); });
      w.mirror.erase(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.8) {
      const Value v = gen.random_subject();
      expect_answer(out, World::ids_of(w.gateway.equality_search("obs", "subject", v)),
                    w.reference_eq("subject", v), step);
    } else if (roll < 0.9) {
      const auto [lo, hi] = gen.random_effective_range();
      expect_answer(out, World::ids_of(w.gateway.range_search("obs", "effective", lo, hi)),
                    w.reference_range("effective", lo.as_int(), hi.as_int()), step);
    } else {
      const Value v = gen.random_status();
      expect_answer(out, World::ids_of(w.gateway.equality_search("obs", "status", v)),
                    w.reference_eq("status", v), step);
    }
  }

  for (const char* subject : {"John Doe", "Alice Martin", "Mia Dupont"}) {
    expect_answer(out,
                  World::ids_of(w.gateway.equality_search("obs", "subject", Value(subject))),
                  w.reference_eq("subject", Value(subject)), -1);
  }
  double ref_sum = 0;
  for (const auto& [id, d] : w.mirror) ref_sum += d.at("value").as_double();
  const auto avg = w.gateway.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, w.mirror.size());
  if (!w.mirror.empty()) {
    EXPECT_NEAR(avg.value, ref_sum / static_cast<double>(w.mirror.size()), 0.01);
  }
  out.counts.push_back(avg.count);
  if (fault_every > 0) {
    EXPECT_GT(faults, 1) << "the workload faulted too few writes to cover both recoveries";
  }
  return out;
}

class JournaledWriteSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournaledWriteSweep, FaultedUpdatesAndRemovalsRecoverToTheReference) {
  World journaled(/*journal=*/true);
  const Answers with_faults = run_write_workload(journaled, GetParam(), /*fault_every=*/3);
  World plain;
  const Answers without = run_write_workload(plain, GetParam(), /*fault_every=*/0);
  EXPECT_TRUE(with_faults == without) << "journal on and off answered differently";
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournaledWriteSweep, ::testing::Values(5, 6, 7));

class BooleanDnfSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BooleanDnfSweep, RandomDnfQueriesMatchReference) {
  World w;
  fhir::ObservationGenerator gen(GetParam() + 500);
  for (int i = 0; i < 50; ++i) w.insert(gen.next());

  DetRng rng(GetParam() * 7 + 1);
  fhir::ObservationGenerator qgen(GetParam() + 900);
  for (int trial = 0; trial < 15; ++trial) {
    FieldBoolQuery q;
    const std::size_t disjuncts = 1 + rng.uniform(2);
    for (std::size_t di = 0; di < disjuncts; ++di) {
      std::vector<FieldTerm> conj;
      conj.push_back({"status", qgen.random_status()});
      if (rng.real() < 0.7) conj.push_back({"code", qgen.random_code()});
      if (rng.real() < 0.3) conj.push_back({"effective", Value(std::int64_t{1})});
      q.dnf.push_back(std::move(conj));
    }

    std::set<DocId> expected;
    for (const auto& [id, d] : w.mirror) {
      for (const auto& conj : q.dnf) {
        const bool all = std::all_of(conj.begin(), conj.end(), [&](const FieldTerm& t) {
          return d.has(t.field) && d.at(t.field) == t.value;
        });
        if (all) {
          expected.insert(id);
          break;
        }
      }
    }
    EXPECT_EQ(World::ids_of(w.gateway.boolean_search("obs", q)), expected)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanDnfSweep, ::testing::Values(1, 2, 3));

// ZMF false positives never survive the gateway's exact re-verification.
TEST(ZmfEndToEnd, ApproximateCandidatesAreReverified) {
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;

  // A registry where ZMF outranks 2Lev, with deliberately tiny filters to
  // force false positives.
  TacticRegistry reg;
  register_det_tactic(reg);
  register_rnd_tactic(reg);
  register_mitra_tactic(reg);
  register_biex2lev_tactic(reg);
  {
    TacticDescriptor d = BiexZmfTactic::static_descriptor();
    d.preference = 100;
    reg.register_boolean_tactic(std::move(d), [](const GatewayContext& ctx) {
      return std::make_unique<BiexZmfTactic>(ctx);
    });
  }
  register_ope_tactic(reg);
  register_ore_tactic(reg);
  register_paillier_tactic(reg);

  Gateway gateway(rpc, kms, local, reg,
                  GatewayConfig{{{"paillier_modulus_bits", "256"},
                                 {"zmf_filter_bits", "16"},   // high FP rate
                                 {"zmf_num_hashes", "2"}}});
  gateway.register_schema(fhir::observation_schema("obs"));
  ASSERT_EQ(gateway.plan("obs").boolean_tactic, "BIEX-ZMF");

  fhir::ObservationGenerator gen(321);
  std::map<DocId, Document> mirror;
  for (int i = 0; i < 60; ++i) {
    Document d = gen.next();
    const DocId id = gateway.insert("obs", d);
    d.id = id;
    mirror[id] = std::move(d);
  }

  fhir::ObservationGenerator qgen(654);
  for (int trial = 0; trial < 10; ++trial) {
    FieldBoolQuery q;
    q.dnf.push_back({{"status", qgen.random_status()}, {"code", qgen.random_code()}});
    std::set<DocId> expected;
    for (const auto& [id, d] : mirror) {
      if (d.at("status") == q.dnf[0][0].value && d.at("code") == q.dnf[0][1].value) {
        expected.insert(id);
      }
    }
    std::set<DocId> actual;
    for (const auto& d : gateway.boolean_search("obs", q)) actual.insert(d.id);
    EXPECT_EQ(actual, expected) << "trial " << trial;  // exact despite tiny filters
  }
}

// OPE/ORE range tactics agree with each other on random numeric data.
TEST(RangeTacticAgreement, OpeAndOreReturnIdenticalRanges) {
  CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;

  // Registry with ORE promoted over OPE.
  TacticRegistry ore_first;
  register_det_tactic(ore_first);
  register_rnd_tactic(ore_first);
  register_mitra_tactic(ore_first);
  register_biex2lev_tactic(ore_first);
  register_biexzmf_tactic(ore_first);
  register_ope_tactic(ore_first);
  {
    TacticDescriptor d = OreTactic::static_descriptor();
    d.preference = 100;
    ore_first.register_field_tactic(std::move(d), [](const GatewayContext& ctx) {
      return std::make_unique<OreTactic>(ctx);
    });
  }
  register_paillier_tactic(ore_first);

  auto make_schema = [](const std::string& name) {
    schema::Schema s(name);
    schema::FieldAnnotation f;
    f.type = schema::FieldType::kInt;
    f.sensitive = true;
    f.protection = schema::ProtectionClass::kClass5;
    f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
    s.field("ts", f);
    return s;
  };

  Gateway ope_gw(rpc, kms, local, registry(), {});
  ope_gw.register_schema(make_schema("ope_col"));
  ASSERT_EQ(ope_gw.plan("ope_col").fields.at("ts").range_tactic, "OPE");

  Gateway ore_gw(rpc, kms, local, ore_first, {});
  ore_gw.register_schema(make_schema("ore_col"));
  ASSERT_EQ(ore_gw.plan("ore_col").fields.at("ts").range_tactic, "ORE");

  DetRng rng(55);
  for (int i = 0; i < 40; ++i) {
    const std::int64_t ts = rng.range(-1000, 1000);
    Document d1, d2;
    d1.set("ts", Value(ts));
    d2.set("ts", Value(ts));
    ope_gw.insert("ope_col", d1);
    ore_gw.insert("ore_col", d2);
  }
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t lo = rng.range(-1200, 800);
    const std::int64_t hi = lo + rng.range(0, 600);
    const auto a = ope_gw.range_search("ope_col", "ts", Value(lo), Value(hi));
    const auto b = ore_gw.range_search("ore_col", "ts", Value(lo), Value(hi));
    EXPECT_EQ(a.size(), b.size()) << "[" << lo << "," << hi << "]";
  }
}

}  // namespace
}  // namespace datablinder::core
