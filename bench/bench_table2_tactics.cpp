// Table 2 reproduction — the tactic catalogue.
//
// For every implemented construction this prints the paper's columns
// (protection class, leakage, gateway/cloud SPI interface counts,
// challenge) from the live registry descriptors, then *measures* each
// tactic's setup / insert / query protocol latency through a real
// gateway-cloud deployment. Section 2 prints the Table 1 SPI matrix.
#include <cstdio>
#include <functional>
#include <string>

#include "common/stopwatch.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/biexzmf_tactic.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/ore_tactic.hpp"
#include "core/tactics/sophos_tactic.hpp"
#include "fhir/observation.hpp"

using namespace datablinder;
using doc::Document;
using doc::Value;

namespace {

struct Rig {
  Rig(const core::TacticRegistry& registry)
      : rpc(cloud.rpc(), channel),
        gateway(rpc, kms, local, registry,
                core::GatewayConfig{{{"paillier_modulus_bits", "512"},
                                     {"paillier_pool", "8"},
                                     {"sophos_modulus_bits", "768"}}}) {}
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
  core::Gateway gateway;
};

core::TacticRegistry default_registry() {
  core::TacticRegistry r;
  core::register_builtin_tactics(r);
  return r;
}

core::TacticRegistry promoted_registry(const std::string& tactic) {
  core::TacticRegistry r;
  core::register_det_tactic(r);
  core::register_rnd_tactic(r);
  core::register_mitra_tactic(r);
  if (tactic == "Sophos") {
    core::TacticDescriptor d = core::SophosTactic::static_descriptor();
    d.preference = 100;
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::SophosTactic>(ctx);
    });
  } else {
    core::register_sophos_tactic(r);
  }
  core::register_biex2lev_tactic(r);
  if (tactic == "BIEX-ZMF") {
    core::TacticDescriptor d = core::BiexZmfTactic::static_descriptor();
    d.preference = 100;
    r.register_boolean_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::BiexZmfTactic>(ctx);
    });
  } else {
    core::register_biexzmf_tactic(r);
  }
  core::register_ope_tactic(r);
  if (tactic == "ORE") {
    core::TacticDescriptor d = core::OreTactic::static_descriptor();
    d.preference = 100;
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::OreTactic>(ctx);
    });
  } else {
    core::register_ore_tactic(r);
  }
  core::register_paillier_tactic(r);
  return r;
}

schema::Schema one_field_schema(schema::ProtectionClass cls,
                                std::set<schema::Operation> ops,
                                std::set<schema::Aggregate> aggs,
                                schema::FieldType type) {
  schema::Schema s("t2");
  schema::FieldAnnotation f;
  f.type = type;
  f.sensitive = true;
  f.protection = cls;
  f.operations = std::move(ops);
  f.aggregates = std::move(aggs);
  s.field("f", f);
  return s;
}

struct Measured {
  double setup_ms = 0;
  double insert_us = 0;
  double query_us = 0;
};

/// Inserts N docs and runs Q queries against the single-field schema,
/// timing each protocol phase.
Measured measure(const core::TacticRegistry& registry, const schema::Schema& s,
                 schema::FieldType type,
                 const std::function<void(core::Gateway&)>& query, int inserts = 150,
                 int queries = 25) {
  Rig rig(registry);
  Measured m;
  Stopwatch sw;
  rig.gateway.register_schema(s);
  m.setup_ms = sw.elapsed_ms();

  DetRng rng(7);
  sw.reset();
  for (int i = 0; i < inserts; ++i) {
    Document d;
    if (type == schema::FieldType::kString) {
      d.set("f", Value(std::string("v").append(std::to_string(rng.uniform(8)))));
    } else if (type == schema::FieldType::kDouble) {
      d.set("f", Value(static_cast<double>(rng.range(10, 200)) / 10.0));
    } else {
      d.set("f", Value(rng.range(0, 100000)));
    }
    rig.gateway.insert("t2", d);
  }
  m.insert_us = sw.elapsed_us() / inserts;

  sw.reset();
  for (int i = 0; i < queries; ++i) query(rig.gateway);
  m.query_us = sw.elapsed_us() / queries;
  return m;
}

void print_row(const core::TacticDescriptor& d, const char* operation,
               const Measured& m) {
  // Leakage column: the query operation's leakage (the per-operation
  // reification of Fig. 1 collapsed to the headline Table 2 value).
  std::string leakage = "-";
  for (const auto& op : {core::TacticOperation::kEqualitySearch,
                         core::TacticOperation::kBooleanSearch,
                         core::TacticOperation::kRangeQuery}) {
    auto it = d.operations.find(op);
    if (it != d.operations.end()) {
      leakage = to_string(it->second.leakage);
      break;
    }
  }
  const bool has_class = d.serves_aggregates.empty() || !d.serves_operations.count(
      schema::Operation::kEquality) ? true : true;
  (void)has_class;
  const std::string cls =
      d.name == "Paillier" ? "-" : std::to_string(static_cast<int>(d.protection_class));
  std::printf("%-16s %-10s %-6s %-12s %3zu  %3zu   %-26s %9.2f %9.1f %9.1f\n",
              operation, d.name.c_str(), cls.c_str(),
              d.name == "Paillier" ? "-" : leakage.c_str(),
              d.gateway_interfaces.size(), d.cloud_interfaces.size(),
              d.challenge.c_str(), m.setup_ms, m.insert_us, m.query_us);
}

}  // namespace

int main() {
  using schema::Aggregate;
  using schema::FieldType;
  using schema::Operation;
  using schema::ProtectionClass;

  std::printf("== Table 2: implemented constructions (descriptors + measured protocol costs) ==\n\n");
  std::printf("%-16s %-10s %-6s %-12s %-4s %-5s %-26s %9s %9s %9s\n", "Operation",
              "Scheme", "Class", "Leakage", "GW", "Cloud", "Challenge", "setup/ms",
              "insert/us", "query/us");
  std::printf("%s\n", std::string(125, '-').c_str());

  const auto reg = default_registry();

  // --- Equality search -------------------------------------------------------
  {
    const auto s = one_field_schema(ProtectionClass::kClass4,
                                    {Operation::kInsert, Operation::kEquality}, {},
                                    FieldType::kString);
    const Measured m = measure(reg, s, FieldType::kString, [](core::Gateway& g) {
      g.equality_search("t2", "f", Value("v3"));
    });
    print_row(reg.descriptor("DET"), "Equality Search", m);
  }
  {
    const auto s = one_field_schema(ProtectionClass::kClass2,
                                    {Operation::kInsert, Operation::kEquality}, {},
                                    FieldType::kString);
    const Measured m = measure(reg, s, FieldType::kString, [](core::Gateway& g) {
      g.equality_search("t2", "f", Value("v3"));
    });
    print_row(reg.descriptor("Mitra"), "", m);
  }
  {
    const auto sophos_reg = promoted_registry("Sophos");
    const auto s = one_field_schema(ProtectionClass::kClass2,
                                    {Operation::kInsert, Operation::kEquality}, {},
                                    FieldType::kString);
    const Measured m = measure(sophos_reg, s, FieldType::kString, [](core::Gateway& g) {
      g.equality_search("t2", "f", Value("v3"));
    });
    print_row(reg.descriptor("Sophos"), "", m);
  }
  {
    const auto s = one_field_schema(ProtectionClass::kClass1,
                                    {Operation::kInsert, Operation::kEquality}, {},
                                    FieldType::kString);
    const Measured m = measure(reg, s, FieldType::kString, [](core::Gateway& g) {
      g.equality_search("t2", "f", Value("v3"));
    });
    print_row(reg.descriptor("RND"), "", m);
  }

  // --- Boolean search ---------------------------------------------------------
  {
    const auto s = one_field_schema(ProtectionClass::kClass3,
                                    {Operation::kInsert, Operation::kBoolean}, {},
                                    FieldType::kString);
    const Measured m = measure(reg, s, FieldType::kString, [](core::Gateway& g) {
      core::FieldBoolQuery q;
      q.dnf.push_back({{"f", Value("v3")}});
      g.boolean_search("t2", q);
    });
    print_row(reg.descriptor("BIEX-2Lev"), "Boolean Search", m);
  }
  {
    const auto zmf_reg = promoted_registry("BIEX-ZMF");
    const auto s = one_field_schema(ProtectionClass::kClass3,
                                    {Operation::kInsert, Operation::kBoolean}, {},
                                    FieldType::kString);
    const Measured m = measure(zmf_reg, s, FieldType::kString, [](core::Gateway& g) {
      core::FieldBoolQuery q;
      q.dnf.push_back({{"f", Value("v3")}});
      g.boolean_search("t2", q);
    });
    print_row(reg.descriptor("BIEX-ZMF"), "", m);
  }

  // --- Range query ---------------------------------------------------------------
  {
    const auto s = one_field_schema(ProtectionClass::kClass5,
                                    {Operation::kInsert, Operation::kRange}, {},
                                    FieldType::kInt);
    const Measured m = measure(reg, s, FieldType::kInt, [](core::Gateway& g) {
      g.range_search("t2", "f", Value(std::int64_t{20000}), Value(std::int64_t{40000}));
    });
    print_row(reg.descriptor("OPE"), "Range Query", m);
  }
  {
    const auto ore_reg = promoted_registry("ORE");
    const auto s = one_field_schema(ProtectionClass::kClass5,
                                    {Operation::kInsert, Operation::kRange}, {},
                                    FieldType::kInt);
    const Measured m = measure(ore_reg, s, FieldType::kInt, [](core::Gateway& g) {
      g.range_search("t2", "f", Value(std::int64_t{20000}), Value(std::int64_t{40000}));
    });
    print_row(reg.descriptor("ORE"), "", m);
  }

  // --- Aggregates ------------------------------------------------------------------
  {
    const auto s = one_field_schema(ProtectionClass::kClass1, {Operation::kInsert},
                                    {Aggregate::kSum}, FieldType::kDouble);
    const Measured m = measure(reg, s, FieldType::kDouble, [](core::Gateway& g) {
      g.aggregate("t2", "f", Aggregate::kSum);
    });
    print_row(reg.descriptor("Paillier"), "Sum", m);
  }
  {
    const auto s = one_field_schema(ProtectionClass::kClass1, {Operation::kInsert},
                                    {Aggregate::kAverage}, FieldType::kDouble);
    const Measured m = measure(reg, s, FieldType::kDouble, [](core::Gateway& g) {
      g.aggregate("t2", "f", Aggregate::kAverage);
    });
    print_row(reg.descriptor("Paillier"), "Average", m);
  }

  std::printf("\nPaper Table 2 reference counts (gateway/cloud): DET 9/6, Mitra 7/5, "
              "Sophos 6/4,\nRND 6/4, BIEX-2Lev 8/5, BIEX-ZMF 8/5, OPE 3/3, ORE 3/3, "
              "Paillier 3/3.\n");

  // --- Table 1: the SPI matrix -----------------------------------------------------
  std::printf("\n== Table 1: Service Provider Interfaces per tactic ==\n\n");
  for (const auto& name : reg.names()) {
    const auto& d = reg.descriptor(name);
    std::printf("%-10s gateway {", name.c_str());
    bool first = true;
    for (const auto spi : d.gateway_interfaces) {
      std::printf("%s%s", first ? "" : ", ", to_string(spi).c_str());
      first = false;
    }
    std::printf("}\n%-10s cloud   {", "");
    first = true;
    for (const auto spi : d.cloud_interfaces) {
      std::printf("%s%s", first ? "" : ", ", to_string(spi).c_str());
      first = false;
    }
    std::printf("}\n");
  }
  return 0;
}
