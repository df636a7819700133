// bench_hedging — CI-checkable proof that hedged reads cap tail latency
// when one replica of three turns slow.
//
// Setup: a 3-replica ShardedCloud behind channels with a simulated
// 1 ms one-way WAN latency. After an insert phase builds per-replica
// latency history, the read phase runs twice:
//   * no-fault baseline — all replicas fast; p50/p99 recorded;
//   * degraded — the CURRENT best-scored replica (the one the router
//     would pick next) is slowed 10x, so the very next read lands on it.
//     With hedging on, the hedge fires after the p95-derived delay and a
//     fast replica answers; the failure-accrual EWMA then steers later
//     reads away from the slow node.
//
// The contrast run repeats the degraded phase with hedging OFF: its first
// read eats the full 10x round trip, which is exactly the tail the hedge
// removes (compare "max_us" in the JSON).
//
// A third phase measures S_C availability: the full-gateway benchmark
// workload (insert + equality search + periodic aggregate) against three
// replicas, healthy and then with the primary killed outright — the
// EXPERIMENTS.md "kill 1 of 3" table comes from this run.
//
// Emits BENCH_hedging.json and exits non-zero when the degraded hedged
// p99 exceeds 3x the no-fault baseline p99, when no hedge fired/won, or
// when the kill-one-replica throughput drops below 0.4x healthy.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"

using namespace datablinder;
using doc::Document;
using doc::Value;

namespace {

constexpr int kDocs = 12;
constexpr int kReads = 100;
constexpr std::uint64_t kBaseLatencyUs = 1000;   // one-way, per channel
constexpr std::uint64_t kSlowLatencyUs = 10000;  // the degraded replica (10x)

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

struct Phase {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

Phase percentiles(std::vector<double> us) {
  std::sort(us.begin(), us.end());
  Phase p;
  p.p50_us = us[us.size() / 2];
  p.p99_us = us[(us.size() * 99) / 100 - 1];
  p.max_us = us.back();
  return p;
}

struct Run {
  Phase nofault;
  Phase degraded;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedges_won = 0;
};

Run run(bool hedged) {
  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 99;
  cfg.replicas = 3;
  cfg.hedge.enabled = hedged;

  net::ChannelConfig wan;
  wan.one_way_latency_us = kBaseLatencyUs;
  core::ShardedCloud rc(cfg, wan);
  kms::KeyManager kms(Bytes(32, 42));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(31);
  std::vector<std::string> ids;
  for (int i = 0; i < kDocs; ++i) {
    Document d = gen.next();
    d.id = "doc-" + std::to_string(i);
    ids.push_back(gw.insert("obs", d));
  }

  auto read_phase = [&] {
    std::vector<double> us;
    us.reserve(kReads);
    for (int i = 0; i < kReads; ++i) {
      Stopwatch sw;
      (void)gw.read("obs", ids[static_cast<std::size_t>(i) % ids.size()]);
      us.push_back(sw.elapsed_us());
    }
    return percentiles(std::move(us));
  };

  Run out;
  out.nofault = read_phase();

  // Degrade the replica the router currently ranks best — the very next
  // read is guaranteed to land on it.
  const auto health = rc.group(0)->health();
  std::size_t best = 0;
  for (const auto& h : health) {
    if (!h.suspected && h.score < health[best].score) best = h.index;
  }
  net::ChannelConfig slow = wan;
  slow.one_way_latency_us = kSlowLatencyUs;
  rc.channel(0, best).set_config(slow);

  const std::uint64_t fired0 = gw.perf().counter("net.hedge.fired");
  const std::uint64_t won0 = gw.perf().counter("net.hedge.won");
  out.degraded = read_phase();
  out.hedges_fired = gw.perf().counter("net.hedge.fired") - fired0;
  out.hedges_won = gw.perf().counter("net.hedge.won") - won0;
  return out;
}

// S_C availability: the full-gateway §5.2 workload (insert + equality
// search + periodic aggregate over the benchmark schema) against three
// replicas, measured healthy and then with the PRIMARY killed outright —
// the worst single-replica loss, eaten by failure accrual + failover.
struct Avail {
  double healthy_ops_s = 0.0;
  double degraded_ops_s = 0.0;
  std::uint64_t failovers = 0;
};

Avail availability() {
  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 7;
  cfg.replicas = 3;
  cfg.hedge.enabled = true;

  net::ChannelConfig wan;
  wan.one_way_latency_us = 200;
  core::ShardedCloud rc(cfg, wan);
  kms::KeyManager kms(Bytes(32, 43));
  store::KvStore local;
  core::Gateway gw(rc.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(32);
  int seq = 0;
  auto phase = [&](int iterations) {
    Stopwatch sw;
    std::uint64_t ops = 0;
    for (int i = 0; i < iterations; ++i) {
      Document d = gen.next();
      d.id = "av-" + std::to_string(seq++);
      d.set("subject", Value("patient-" + std::to_string(seq % 5)));
      gw.insert("obs", d);
      ++ops;
      (void)gw.equality_search("obs", "subject",
                               Value("patient-" + std::to_string(seq % 5)));
      ++ops;
      if (i % 5 == 0) {
        (void)gw.aggregate("obs", "value", schema::Aggregate::kAverage);
        ++ops;
      }
    }
    return static_cast<double>(ops) / (sw.elapsed_us() / 1e6);
  };

  Avail out;
  out.healthy_ops_s = phase(30);
  rc.channel(0, rc.group(0)->primary()).close();  // kill 1 of 3 — the primary
  out.degraded_ops_s = phase(30);
  out.failovers = gw.perf().counter("net.replica.failover");
  return out;
}

}  // namespace

int main() {
  std::printf("== Hedged reads vs a 10x-slow replica (3 replicas, %d reads/phase) ==\n\n",
              kReads);
  const Run hedged = run(true);
  const Run plain = run(false);
  const Avail avail = availability();
  const double tail_ratio = hedged.degraded.p99_us / hedged.nofault.p99_us;
  const double avail_ratio = avail.degraded_ops_s / avail.healthy_ops_s;

  std::printf("%-30s %12s %12s %12s\n", "", "p50/us", "p99/us", "max/us");
  std::printf("%-30s %12.0f %12.0f %12.0f\n", "hedged, no fault",
              hedged.nofault.p50_us, hedged.nofault.p99_us, hedged.nofault.max_us);
  std::printf("%-30s %12.0f %12.0f %12.0f\n", "hedged, 1 of 3 slow",
              hedged.degraded.p50_us, hedged.degraded.p99_us, hedged.degraded.max_us);
  std::printf("%-30s %12.0f %12.0f %12.0f\n", "unhedged, 1 of 3 slow",
              plain.degraded.p50_us, plain.degraded.p99_us, plain.degraded.max_us);
  std::printf("%-30s %12llu\n", "hedges fired",
              static_cast<unsigned long long>(hedged.hedges_fired));
  std::printf("%-30s %12llu\n", "hedges won",
              static_cast<unsigned long long>(hedged.hedges_won));
  std::printf("%-30s %11.2fx (want <= 3x)\n", "degraded p99 / no-fault p99", tail_ratio);

  std::printf("\n== S_C availability (insert + search + aggregate, kill 1 of 3) ==\n\n");
  std::printf("%-30s %12.1f ops/s\n", "all replicas healthy", avail.healthy_ops_s);
  std::printf("%-30s %12.1f ops/s\n", "primary killed mid-run", avail.degraded_ops_s);
  std::printf("%-30s %12llu\n", "failovers",
              static_cast<unsigned long long>(avail.failovers));
  std::printf("%-30s %11.2fx of healthy\n", "degraded throughput", avail_ratio);

  std::FILE* f = std::fopen("BENCH_hedging.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"replicas\": 3,\n"
                 "  \"reads_per_phase\": %d,\n"
                 "  \"base_one_way_latency_us\": %llu,\n"
                 "  \"slow_one_way_latency_us\": %llu,\n"
                 "  \"hedged_nofault_p50_us\": %.0f,\n"
                 "  \"hedged_nofault_p99_us\": %.0f,\n"
                 "  \"hedged_degraded_p50_us\": %.0f,\n"
                 "  \"hedged_degraded_p99_us\": %.0f,\n"
                 "  \"hedged_degraded_max_us\": %.0f,\n"
                 "  \"unhedged_degraded_p99_us\": %.0f,\n"
                 "  \"unhedged_degraded_max_us\": %.0f,\n"
                 "  \"hedges_fired\": %llu,\n"
                 "  \"hedges_won\": %llu,\n"
                 "  \"degraded_p99_over_nofault_p99\": %.2f,\n"
                 "  \"sc_healthy_ops_s\": %.1f,\n"
                 "  \"sc_kill_one_ops_s\": %.1f,\n"
                 "  \"sc_kill_one_over_healthy\": %.2f,\n"
                 "  \"sc_failovers\": %llu\n"
                 "}\n",
                 kReads, static_cast<unsigned long long>(kBaseLatencyUs),
                 static_cast<unsigned long long>(kSlowLatencyUs),
                 hedged.nofault.p50_us, hedged.nofault.p99_us,
                 hedged.degraded.p50_us, hedged.degraded.p99_us,
                 hedged.degraded.max_us, plain.degraded.p99_us,
                 plain.degraded.max_us,
                 static_cast<unsigned long long>(hedged.hedges_fired),
                 static_cast<unsigned long long>(hedged.hedges_won), tail_ratio,
                 avail.healthy_ops_s, avail.degraded_ops_s, avail_ratio,
                 static_cast<unsigned long long>(avail.failovers));
    std::fclose(f);
  }

  bool ok = true;
  if (tail_ratio > 3.0) {
    std::fprintf(stderr, "FAIL: degraded p99 %.0fus is %.2fx the no-fault p99 %.0fus (want <= 3x)\n",
                 hedged.degraded.p99_us, tail_ratio, hedged.nofault.p99_us);
    ok = false;
  }
  if (hedged.hedges_fired == 0 || hedged.hedges_won == 0) {
    std::fprintf(stderr, "FAIL: no hedge fired/won (fired=%llu won=%llu)\n",
                 static_cast<unsigned long long>(hedged.hedges_fired),
                 static_cast<unsigned long long>(hedged.hedges_won));
    ok = false;
  }
  if (avail.failovers == 0 || avail_ratio < 0.4) {
    std::fprintf(stderr,
                 "FAIL: S_C with 1 of 3 replicas killed ran at %.1f ops/s vs %.1f "
                 "healthy (%.2fx, want >= 0.4x with >= 1 failover, got %llu)\n",
                 avail.degraded_ops_s, avail.healthy_ops_s, avail_ratio,
                 static_cast<unsigned long long>(avail.failovers));
    ok = false;
  }
  if (ok) std::printf("\nhedged-read tail assertions OK\n");
  return ok ? 0 : 1;
}
