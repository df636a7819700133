// bench_adaptive — CI-checkable proof that adaptive selection converges
// and that the hot-path cache earns its keep.
//
// Setup mirrors bench_ablation_ranges' promoted registry: ORE gets
// preference 100, so the §5.1 static table picks ORE for the C5 range
// field — a deliberately poor static choice (O(N) token comparisons per
// query). With adaptive_selection on, the cost model's priors already
// rank OPE well clear of ORE at this cardinality and selectivity, so the
// plan must switch within hysteresis_windows decisions; from then on the
// hot cache serves repeat OPE bound labels and decrypted documents.
//
// RangeBRC is deliberately absent from this registry: its measured range
// cost sits close to OPE's, so once observations outweigh the priors the
// steady-state choice between the two is machine-dependent — the
// convergence assertion wants a deterministic winner.
// bench_ablation_ranges keeps the full triangle.
//
// Emits BENCH_adaptive.json and exits non-zero when adaptation fails to
// converge to OPE, when the query-phase cache hit ratio is <= 0.9, or
// when the adaptive steady state is not faster than the static baseline.
#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/ore_tactic.hpp"

using namespace datablinder;
using doc::Document;
using doc::Value;

namespace {

constexpr int kDocs = 300;
constexpr int kQueries = 40;
// Fixed 2% window: every run asks the same narrow question, the shape the
// cache and the cost model's default_selectivity are tuned for below.
constexpr std::int64_t kLo = 450000, kHi = 470000;

core::TacticRegistry make_registry() {
  core::TacticRegistry r;
  core::register_det_tactic(r);
  core::register_rnd_tactic(r);
  core::register_mitra_tactic(r);
  core::register_biex2lev_tactic(r);
  core::TacticDescriptor d = core::OreTactic::static_descriptor();
  d.preference = 100;  // outbid OPE in the static table
  r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
    return std::make_unique<core::OreTactic>(ctx);
  });
  core::register_ope_tactic(r);
  return r;
}

schema::Schema make_schema() {
  schema::Schema s("ts_col");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kInt;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass5;
  f.operations = {schema::Operation::kInsert, schema::Operation::kRange};
  s.field("ts", f);
  return s;
}

struct Run {
  double mean_query_us = 0.0;    // over the whole query phase
  double steady_query_us = 0.0;  // over the last half
  int converged_at = -1;         // first query answered by the cost model's switch
  std::string final_choice;
  double query_hit_ratio = 0.0;  // cache hits/(hits+misses) in the query phase only
};

Run run(bool adaptive) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  const core::TacticRegistry registry = make_registry();
  core::GatewayConfig cfg;
  if (adaptive) {
    cfg.adaptive_selection = true;
    cfg.hot_cache_capacity = 1024;
    cfg.cost.default_selectivity = 0.02;  // the 2% window above
  }
  core::Gateway gw(rpc, kms, local, registry, cfg);
  gw.register_schema(make_schema());
  if (gw.plan("ts_col").fields.at("ts").range_tactic != "ORE") {
    std::fprintf(stderr, "static table did not pick the promoted ORE\n");
    std::exit(1);
  }

  DetRng rng(17);
  for (int i = 0; i < kDocs; ++i) {
    Document d;
    d.set("ts", Value(rng.range(0, 1000000)));
    gw.insert("ts_col", d);
  }

  const std::uint64_t h0 = adaptive ? gw.cache()->hits() : 0;
  const std::uint64_t m0 = adaptive ? gw.cache()->misses() : 0;
  Run out;
  double total_us = 0.0, steady_us = 0.0;
  for (int q = 0; q < kQueries; ++q) {
    Stopwatch sw;
    const auto hits = gw.range_search("ts_col", "ts", Value(kLo), Value(kHi));
    const double us = sw.elapsed_us();
    if (hits.empty()) {
      std::fprintf(stderr, "query window is empty — bench is vacuous\n");
      std::exit(1);
    }
    total_us += us;
    if (q >= kQueries / 2) steady_us += us;
    if (adaptive && out.converged_at < 0 &&
        gw.plan("ts_col").fields.at("ts").range_chosen_by == "cost-model") {
      out.converged_at = q + 1;  // 1-based: "converged by query N"
    }
  }
  out.mean_query_us = total_us / kQueries;
  out.steady_query_us = steady_us / (kQueries - kQueries / 2);
  if (adaptive) {
    out.final_choice = gw.plan("ts_col").fields.at("ts").range_last_choice;
    const std::uint64_t h = gw.cache()->hits() - h0;
    const std::uint64_t m = gw.cache()->misses() - m0;
    out.query_hit_ratio =
        (h + m) == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== Adaptive selection vs promoted-ORE static table (%d docs, %d x 2%% range) ==\n\n",
              kDocs, kQueries);
  const Run st = run(false);
  const Run ad = run(true);
  const double speedup = st.steady_query_us / ad.steady_query_us;

  std::printf("%-28s %14s %14s\n", "", "static (ORE)", "adaptive");
  std::printf("%-28s %14.1f %14.1f\n", "mean query/us", st.mean_query_us, ad.mean_query_us);
  std::printf("%-28s %14.1f %14.1f\n", "steady-state query/us", st.steady_query_us,
              ad.steady_query_us);
  std::printf("%-28s %14s %14s\n", "final range tactic", "ORE", ad.final_choice.c_str());
  std::printf("%-28s %14s %14d\n", "converged by query", "-", ad.converged_at);
  std::printf("%-28s %14s %14.3f\n", "query-phase cache hit ratio", "-", ad.query_hit_ratio);
  std::printf("%-28s %14s %13.1fx\n", "steady-state speedup", "-", speedup);

  std::FILE* f = std::fopen("BENCH_adaptive.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"docs\": %d,\n"
                 "  \"queries\": %d,\n"
                 "  \"static_tactic\": \"ORE\",\n"
                 "  \"static_steady_query_us\": %.1f,\n"
                 "  \"adaptive_final_tactic\": \"%s\",\n"
                 "  \"adaptive_converged_by_query\": %d,\n"
                 "  \"adaptive_steady_query_us\": %.1f,\n"
                 "  \"adaptive_query_hit_ratio\": %.4f,\n"
                 "  \"steady_state_speedup\": %.2f\n"
                 "}\n",
                 kDocs, kQueries, st.steady_query_us, ad.final_choice.c_str(),
                 ad.converged_at, ad.steady_query_us, ad.query_hit_ratio, speedup);
    std::fclose(f);
  }

  bool ok = true;
  if (ad.final_choice != "OPE") {
    std::fprintf(stderr, "FAIL: adaptation did not converge to OPE (got '%s')\n",
                 ad.final_choice.c_str());
    ok = false;
  }
  if (ad.converged_at < 0 || ad.converged_at > 10) {
    std::fprintf(stderr, "FAIL: convergence took %d queries (want <= 10)\n",
                 ad.converged_at);
    ok = false;
  }
  if (ad.query_hit_ratio <= 0.9) {
    std::fprintf(stderr, "FAIL: query-phase cache hit ratio %.3f (want > 0.9)\n",
                 ad.query_hit_ratio);
    ok = false;
  }
  if (ad.steady_query_us >= st.steady_query_us) {
    std::fprintf(stderr, "FAIL: adaptive steady state %.1fus not faster than static %.1fus\n",
                 ad.steady_query_us, st.steady_query_us);
    ok = false;
  }
  if (ok) std::printf("\nadaptive convergence + cache assertions OK\n");
  return ok ? 0 : 1;
}
