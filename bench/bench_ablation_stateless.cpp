// Ablation: the price of statelessness.
//
// The paper's conclusion flags gateway state as the obstacle to
// cloud-native deployment and calls for "efficient stateless SE schemes".
// This bench compares plain Mitra (gateway-held counters) with our
// Mitra-SL variant (counters outsourced encrypted) along the axes the
// trade-off actually moves: per-operation latency, protocol round trips,
// and cloud-side storage — at several simulated WAN delays, because the
// extra counter round trip is exactly a WAN-latency multiplier.
#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/mitra_stateless_tactic.hpp"

using namespace datablinder;
using doc::Document;
using doc::Value;

namespace {

core::TacticRegistry make_registry(bool stateless) {
  core::TacticRegistry r;
  core::register_det_tactic(r);
  core::register_rnd_tactic(r);
  core::register_mitra_tactic(r);
  {
    core::TacticDescriptor d = core::MitraStatelessTactic::static_descriptor();
    if (stateless) d.preference = 100;
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::MitraStatelessTactic>(ctx);
    });
  }
  core::register_sophos_tactic(r);
  core::register_biex2lev_tactic(r);
  core::register_biexzmf_tactic(r);
  core::register_ope_tactic(r);
  core::register_ore_tactic(r);
  core::register_paillier_tactic(r);
  return r;
}

schema::Schema name_schema() {
  schema::Schema s("people");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kString;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass2;
  f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
  s.field("name", f);
  return s;
}

struct Row {
  double insert_us, search_us;
  std::uint64_t round_trips;
  std::size_t cloud_bytes;
};

Row run(bool stateless, std::uint64_t latency_us, int docs = 150, int searches = 40) {
  core::CloudNode cloud;
  net::ChannelConfig cfg;
  cfg.one_way_latency_us = latency_us;
  net::Channel channel(cfg);
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  const core::TacticRegistry registry = make_registry(stateless);
  core::Gateway gw(rpc, kms, local, registry, {});
  gw.register_schema(name_schema());

  DetRng rng(3);
  Row row{};
  Stopwatch sw;
  for (int i = 0; i < docs; ++i) {
    Document d;
    d.set("name", Value(std::string("p").append(std::to_string(rng.uniform(10)))));
    gw.insert("people", d);
  }
  row.insert_us = sw.elapsed_us() / docs;

  sw.reset();
  for (int i = 0; i < searches; ++i) {
    gw.equality_search("people", "name", Value(std::string("p").append(std::to_string(rng.uniform(10)))));
  }
  row.search_us = sw.elapsed_us() / searches;
  row.round_trips = channel.stats().round_trips.load();
  row.cloud_bytes = cloud.storage_bytes();
  return row;
}

}  // namespace

int main() {
  std::printf("== Stateless-gateway ablation: Mitra vs Mitra-SL ==\n\n");
  std::printf("%-10s %-10s %12s %12s %12s %12s\n", "variant", "delay", "insert/us",
              "search/us", "round trips", "cloud bytes");
  for (const std::uint64_t latency_us : {0ULL, 200ULL, 1000ULL}) {
    for (const bool stateless : {false, true}) {
      const Row r = run(stateless, latency_us);
      std::printf("%-10s %6llu us %12.1f %12.1f %12llu %12zu\n",
                  stateless ? "Mitra-SL" : "Mitra",
                  static_cast<unsigned long long>(latency_us), r.insert_us, r.search_us,
                  static_cast<unsigned long long>(r.round_trips), r.cloud_bytes);
    }
  }
  std::printf(
      "\nMitra-SL pays one extra round trip per update/search (the encrypted\n"
      "counter fetch) and slightly more cloud storage (the counter slots);\n"
      "in exchange the gateway holds zero state — any replica, or a rebooted\n"
      "gateway, continues seamlessly (see tests/stateless_test.cpp).\n");
  return 0;
}
