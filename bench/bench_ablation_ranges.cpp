// Ablation: the three range tactics — OPE, ORE, RangeBRC — across the
// security/performance/functionality triangle the paper's abstraction
// model is built on.
//
//   OPE      — Class 5, ordered cloud index, O(log N + K) scans: cheapest,
//              leaks total order of everything at rest;
//   ORE      — Class 5, mutually incomparable resting ciphertexts, O(N)
//              token comparisons per query: protects the snapshot, costly;
//   RangeBRC — Class 3 (extension), dyadic SSE: no order leakage at all,
//              64x storage amplification and O(log D) searches.
//
// One table, all three axes: insert cost, query cost, cloud storage, and
// the protection class each buys.
#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/ore_tactic.hpp"
#include "core/tactics/rangebrc_tactic.hpp"

using namespace datablinder;
using doc::Document;
using doc::Value;

namespace {

core::TacticRegistry make_registry(const std::string& promoted) {
  core::TacticRegistry r;
  core::register_det_tactic(r);
  core::register_rnd_tactic(r);
  core::register_mitra_tactic(r);
  core::register_sophos_tactic(r);
  core::register_biex2lev_tactic(r);
  core::register_biexzmf_tactic(r);
  if (promoted == "ORE") {
    core::TacticDescriptor d = core::OreTactic::static_descriptor();
    d.preference = 100;
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::OreTactic>(ctx);
    });
  } else {
    core::register_ore_tactic(r);
  }
  if (promoted == "RangeBRC") {
    core::TacticDescriptor d = core::RangeBrcTactic::static_descriptor();
    d.preference = 100;
    d.protection_class = schema::ProtectionClass::kClass5;  // admissible at C5
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::RangeBrcTactic>(ctx);
    });
  } else {
    core::register_rangebrc_tactic(r);
  }
  core::register_ope_tactic(r);
  core::register_paillier_tactic(r);
  return r;
}

struct Row {
  double insert_us, query_us;
  std::size_t cloud_bytes;
};

Row run(const std::string& tactic, bool adaptive = false, int docs = 250,
        int queries = 30) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  const core::TacticRegistry registry = make_registry(tactic);
  core::GatewayConfig cfg;
  cfg.adaptive_selection = adaptive;
  core::Gateway gw(rpc, kms, local, registry, cfg);

  schema::Schema s("ts_col");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  s.field("ts", f);
  gw.register_schema(s);
  if (gw.plan("ts_col").fields.at("ts").range_tactic != tactic) {
    std::fprintf(stderr, "unexpected selection for %s\n", tactic.c_str());
    std::exit(1);
  }

  DetRng rng(17);
  Row row{};
  Stopwatch sw;
  for (int i = 0; i < docs; ++i) {
    Document d;
    d.set("ts", Value(rng.range(0, 1000000)));
    gw.insert("ts_col", d);
  }
  row.insert_us = sw.elapsed_us() / docs;

  sw.reset();
  for (int q = 0; q < queries; ++q) {
    const std::int64_t lo = rng.range(0, 900000);
    gw.range_search("ts_col", "ts", Value(lo), Value(lo + 100000));
  }
  row.query_us = sw.elapsed_us() / queries;
  row.cloud_bytes = cloud.storage_bytes();
  return row;
}

}  // namespace

int main() {
  std::printf("== Range tactic ablation (250 docs, 30 range queries, ~10%% selectivity) ==\n\n");
  std::printf("%-10s %-8s %-22s %12s %12s %12s\n", "tactic", "class", "resting leakage",
              "insert/us", "query/us", "cloud bytes");
  struct Meta {
    const char* name;
    const char* cls;
    const char* leak;
  };
  for (const Meta m : {Meta{"OPE", "5", "total order"},
                       Meta{"ORE", "5", "none (tokens reveal)"},
                       Meta{"RangeBRC", "3", "none (interval access)"}}) {
    const Row r = run(m.name);
    std::printf("%-10s %-8s %-22s %12.1f %12.1f %12zu\n", m.name, m.cls, m.leak,
                r.insert_us, r.query_us, r.cloud_bytes);
  }
  // Fourth row: the static table is pinned to ORE (the costly choice for
  // this workload) but adaptive selection is on — the
  // cost model walks the plan back to the cheapest admissible candidate.
  const Row a = run("ORE", /*adaptive=*/true);
  std::printf("%-10s %-8s %-22s %12.1f %12.1f %12zu\n", "ORE+adapt", "5",
              "as chosen tactic", a.insert_us, a.query_us, a.cloud_bytes);
  std::printf(
      "\nThe triangle, measured: OPE is cheapest and leakiest; ORE protects the\n"
      "snapshot but pays linear comparison scans; RangeBRC removes order\n"
      "leakage entirely for 64x index amplification — and is the only option\n"
      "the policy engine can offer a field whose class bound excludes order.\n"
      "The adaptive row starts from the worst static choice and converges to\n"
      "the cheapest admissible candidate (see bench_adaptive for the CI-\n"
      "asserted convergence + speedup numbers).\n");
  return 0;
}
