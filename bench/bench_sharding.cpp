// bench_sharding — horizontal scale-out of the S_C (full DataBlinder
// gateway) read path across 1 / 2 / 4 / 8 consistent-hash shards.
//
// Every channel carries a serialized per-request service reservation
// (ChannelConfig::service_time_us) modeling a single-threaded shard node
// working through its queue, plus a small overlappable propagation delay.
// One shard therefore bottlenecks on ONE service queue; N shards are N
// independent queues, so closed-loop throughput scales with the shard
// count even on a single-core host (the scaling being measured is
// queueing capacity, not local CPU parallelism).
//
// Workload per user thread (16 users, closed loop): 90% point reads of
// preloaded documents (doc.get — routed to the owning shard), 10%
// equality searches on the Mitra-indexed subject field (trapdoor
// scatter + per-shard doc.mget + ordered merge, both split by the shard
// router). Point reads dominate because they are the operation scale-out
// genuinely multiplies: a search fans its
// trapdoors and candidate fetches across shards, so its capacity cost
// grows with the shard count even though its latency stays flat.
//
// Emits BENCH_sharding.json and exits non-zero when 8-shard throughput
// is below 3x the 1-shard figure, or when any sharded run returns
// results inconsistent with the 1-shard run.
#include <atomic>
#include <cstdio>
#include <thread>
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

constexpr std::size_t kUsers = 32;
constexpr std::size_t kPreload = 224;
constexpr std::size_t kRequests = 1600;
constexpr std::uint64_t kServiceUs = 1000;   // serialized per-request service
constexpr std::uint64_t kLatencyUs = 100;   // overlappable one-way delay
const std::size_t kShardCounts[] = {1, 2, 4, 8};

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

struct RunOut {
  double ops_per_s = 0.0;
  std::uint64_t scatters = 0;    // net.shard.scatter
  std::uint64_t subcalls = 0;    // net.shard.subcalls
  std::uint64_t checksum = 0;    // order-sensitive digest of search results
};

RunOut run(std::size_t shards) {
  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"}};
  cfg.shards = shards;

  net::ChannelConfig ch;
  ch.one_way_latency_us = kLatencyUs;
  ch.service_time_us = kServiceUs;

  core::ShardedCloud cloud(cfg, ch);
  kms::KeyManager kms(Bytes(32, 7));
  store::KvStore local;
  core::Gateway gw(cloud.client(), kms, local, registry(), cfg);
  gw.register_schema(fhir::benchmark_schema("obs"));

  fhir::ObservationGenerator gen(11);
  std::vector<std::string> ids;
  ids.reserve(kPreload);
  for (std::size_t i = 0; i < kPreload; ++i) {
    Document d = gen.next();
    d.id = "sdoc-" + std::to_string(i);
    ids.push_back(gw.insert("obs", d));
  }

  // Fixed per-user quotas keep the issued operation set identical across
  // runs and shard counts (a shared countdown would let scheduling decide
  // how many ops each seeded generator contributes).
  static_assert(kRequests % kUsers == 0);
  constexpr std::size_t kPerUser = kRequests / kUsers;
  std::atomic<std::uint64_t> checksum{0};
  auto user_fn = [&](std::size_t user) {
    fhir::ObservationGenerator ugen(101 + user);
    std::uint64_t local_sum = 0;
    for (std::size_t op = 0; op < kPerUser; ++op) {
      if (ugen.rng().real() < 0.9) {
        const Document d =
            gw.read("obs", ids[ugen.rng().uniform(static_cast<std::uint32_t>(ids.size()))]);
        local_sum += d.id.size();
      } else {
        // Alternate the two sharded search shapes: DET status (label
        // routed trapdoor, then candidate-mget scatter) and Mitra subject
        // (trapdoor scatter AND candidate-mget scatter).
        const auto docs =
            (op % 2) == 0
                ? gw.equality_search("obs", "status", ugen.random_status())
                : gw.equality_search("obs", "subject", ugen.random_subject());
        // Order-sensitive: the sharded merge must re-emit candidates in
        // the same order the 1-shard path would.
        for (std::size_t i = 0; i < docs.size(); ++i) {
          local_sum += (i + 1) * docs[i].id.size();
        }
      }
    }
    checksum.fetch_add(local_sum, std::memory_order_relaxed);
  };

  Stopwatch sw;
  std::vector<std::thread> users;
  users.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) users.emplace_back(user_fn, u);
  for (auto& t : users) t.join();
  const double secs = sw.elapsed_s();

  RunOut out;
  out.ops_per_s = static_cast<double>(kRequests) / secs;
  out.scatters = gw.perf().counter("net.shard.scatter");
  out.subcalls = gw.perf().counter("net.shard.subcalls");
  out.checksum = checksum.load();
  return out;
}

}  // namespace

int main() {
  std::printf("== S_C scale-out: %zu requests, %zu users, %llu us service, "
              "%llu us one-way ==\n\n",
              kRequests, kUsers, static_cast<unsigned long long>(kServiceUs),
              static_cast<unsigned long long>(kLatencyUs));

  RunOut results[4];
  for (std::size_t i = 0; i < 4; ++i) {
    results[i] = run(kShardCounts[i]);
    const double speedup = results[i].ops_per_s / results[0].ops_per_s;
    const double efficiency =
        speedup / static_cast<double>(kShardCounts[i]);
    std::printf("%zu shard%s: %8.1f ops/s   speedup %5.2fx   efficiency %4.0f%%   "
                "(scatters=%llu subcalls=%llu)\n",
                kShardCounts[i], kShardCounts[i] == 1 ? " " : "s",
                results[i].ops_per_s, speedup, 100.0 * efficiency,
                static_cast<unsigned long long>(results[i].scatters),
                static_cast<unsigned long long>(results[i].subcalls));
  }

  // The workload is seeded, so every run issues the same operations; equal
  // checksums mean every sharded configuration returned the same documents
  // in the same order as the 1-shard baseline.
  bool identical = true;
  for (std::size_t i = 1; i < 4; ++i) {
    if (results[i].checksum != results[0].checksum) identical = false;
  }

  const double speedup8 = results[3].ops_per_s / results[0].ops_per_s;
  std::printf("\n8-shard speedup over 1 shard: %.2fx (want >= 3x); "
              "results identical across shard counts: %s\n",
              speedup8, identical ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_sharding.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"users\": %zu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"service_time_us\": %llu,\n"
                 "  \"one_way_latency_us\": %llu,\n"
                 "  \"ops_per_s_1\": %.1f,\n"
                 "  \"ops_per_s_2\": %.1f,\n"
                 "  \"ops_per_s_4\": %.1f,\n"
                 "  \"ops_per_s_8\": %.1f,\n"
                 "  \"speedup_2\": %.2f,\n"
                 "  \"speedup_4\": %.2f,\n"
                 "  \"speedup_8\": %.2f,\n"
                 "  \"efficiency_8\": %.2f,\n"
                 "  \"results_identical\": %s\n"
                 "}\n",
                 kUsers, kRequests, static_cast<unsigned long long>(kServiceUs),
                 static_cast<unsigned long long>(kLatencyUs), results[0].ops_per_s,
                 results[1].ops_per_s, results[2].ops_per_s, results[3].ops_per_s,
                 results[1].ops_per_s / results[0].ops_per_s,
                 results[2].ops_per_s / results[0].ops_per_s, speedup8,
                 speedup8 / 8.0, identical ? "true" : "false");
    std::fclose(f);
  }

  bool ok = true;
  if (speedup8 < 3.0) {
    std::fprintf(stderr, "FAIL: 8-shard throughput %.1f ops/s is only %.2fx the "
                 "1-shard %.1f ops/s (want >= 3x)\n",
                 results[3].ops_per_s, speedup8, results[0].ops_per_s);
    ok = false;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: sharded runs returned different results than the "
                 "1-shard baseline\n");
    ok = false;
  }
  if (ok) std::printf("\nsharding scale-out assertions OK\n");
  return ok ? 0 : 1;
}
