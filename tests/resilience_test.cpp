// Resilience-layer tests: scripted fault plans reproduce deterministically,
// the RPC retry loop honours backoff schedules and deadline budgets (fake
// clock — nothing here sleeps for real), the per-channel circuit breaker
// walks closed -> open -> half-open -> closed, retry/breaker events land in
// the gateway's PerfRegistry, and deferred-section failure paths leave no
// queued requests behind.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/wire.hpp"
#include "fhir/observation.hpp"
#include "net/channel.hpp"
#include "net/resilience.hpp"
#include "net/rpc.hpp"

namespace datablinder {
namespace {

using doc::Document;
using doc::Value;
namespace wire = core::wire;

/// Deterministic clock: sleeps advance time instantly and are recorded so
/// tests assert the exact backoff schedule.
class FakeClock : public net::RetryClock {
 public:
  std::uint64_t now_us() override { return now_; }
  void sleep_us(std::uint64_t us) override {
    now_ += us;
    sleeps.push_back(us);
  }

  std::uint64_t now_ = 0;
  std::vector<std::uint64_t> sleeps;
};

core::TacticRegistry& registry() {
  static core::TacticRegistry r = [] {
    core::TacticRegistry reg;
    core::register_builtin_tactics(reg);
    return reg;
  }();
  return r;
}

net::RpcServer& echo_server() {
  static net::RpcServer* server = [] {
    auto* s = new net::RpcServer;
    s->register_method("echo.get",
                       [](BytesView b) { return Bytes(b.begin(), b.end()); });
    return s;
  }();
  return *server;
}

// --- FaultPlan determinism ---------------------------------------------------

TEST(ResilienceTest, FaultPlanFailsExactTransferOrdinal) {
  net::Channel ch;
  net::FaultPlan plan;
  plan.fail_transfers = {3};
  ch.arm_fault_plan(plan);

  EXPECT_NO_THROW(ch.transfer_request(10, "a"));   // #1
  EXPECT_NO_THROW(ch.transfer_response(10, "a"));  // #2
  try {
    ch.transfer_request(10, "b");  // #3
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
    EXPECT_NE(std::string(e.what()).find("transfer #3"), std::string::npos);
  }
  EXPECT_NO_THROW(ch.transfer_request(10, "b"));  // #4: plan clause spent
  EXPECT_EQ(ch.stats().faults_injected.load(), 1u);
  EXPECT_EQ(ch.transfers(), 4u);
}

TEST(ResilienceTest, FaultPlanMethodPrefixHonoursSkipAndCount) {
  net::Channel ch;
  net::FaultPlan plan;
  plan.method_faults = {{"det.insert", /*skip=*/1, /*count=*/1}};
  ch.arm_fault_plan(plan);

  // First match passes (skipped), second faults, third passes (count spent).
  EXPECT_NO_THROW(ch.transfer_request(10, "det.insert"));
  EXPECT_NO_THROW(ch.transfer_request(10, "doc.put"));  // prefix miss: untouched
  EXPECT_THROW(ch.transfer_request(10, "det.insert"), Error);
  EXPECT_NO_THROW(ch.transfer_request(10, "det.insert"));
  // Response legs never match method faults.
  EXPECT_NO_THROW(ch.transfer_response(10, "det.insert"));
  EXPECT_EQ(ch.stats().faults_injected.load(), 1u);
}

TEST(ResilienceTest, FaultPlanOutageWindowSelfHeals) {
  net::Channel ch;
  net::FaultPlan plan;
  plan.outages = {{/*first=*/2, /*length=*/3}};  // transfers 2,3,4 down
  ch.arm_fault_plan(plan);

  EXPECT_NO_THROW(ch.transfer_request(10, "m"));
  EXPECT_THROW(ch.transfer_request(10, "m"), Error);
  EXPECT_THROW(ch.transfer_request(10, "m"), Error);
  EXPECT_THROW(ch.transfer_request(10, "m"), Error);
  EXPECT_NO_THROW(ch.transfer_request(10, "m"));  // #5: healed
  EXPECT_EQ(ch.stats().faults_injected.load(), 3u);
}

TEST(ResilienceTest, SeededProbabilisticFaultsReproduce) {
  auto run = [](std::uint64_t seed) {
    net::ChannelConfig cfg;
    cfg.failure_probability = 0.5;
    cfg.fault_seed = seed;
    net::Channel ch(cfg);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      try {
        ch.transfer_request(8, "m");
        pattern += '.';
      } catch (const Error&) {
        pattern += 'x';
      }
    }
    return pattern;
  };
  EXPECT_EQ(run(99), run(99));  // same seed: identical fault sequence
  EXPECT_NE(run(99), run(100));
}

// --- Retry policy ------------------------------------------------------------

TEST(ResilienceTest, RetryReplaysSameBytesWithExponentialBackoff) {
  net::Channel ch;
  net::RpcClient rpc(echo_server(), ch);
  FakeClock clock;
  rpc.set_clock(&clock);

  net::RetryPolicy p;
  p.enabled = true;
  p.max_attempts = 4;
  p.initial_backoff_us = 1000;
  p.backoff_multiplier = 2.0;
  p.jitter = 0.0;
  p.retryable_methods = {"echo.get"};
  rpc.set_retry_policy(p);

  net::FaultPlan plan;
  plan.fail_transfers = {1, 2};  // first two attempts die on the request leg
  ch.arm_fault_plan(plan);

  const Bytes out = rpc.call("echo.get", to_bytes("payload"));
  EXPECT_EQ(to_string(out), "payload");
  ASSERT_EQ(clock.sleeps.size(), 2u);  // deterministic schedule, no jitter
  EXPECT_EQ(clock.sleeps[0], 1000u);
  EXPECT_EQ(clock.sleeps[1], 2000u);
  EXPECT_EQ(ch.stats().faults_injected.load(), 2u);
}

TEST(ResilienceTest, JitterIsSeededAndBounded) {
  auto schedule = [](std::uint64_t seed) {
    net::Channel ch;
    net::RpcClient rpc(echo_server(), ch);
    FakeClock clock;
    rpc.set_clock(&clock);
    net::RetryPolicy p;
    p.enabled = true;
    p.max_attempts = 4;
    p.initial_backoff_us = 10000;
    p.backoff_multiplier = 2.0;
    p.jitter = 0.5;
    p.jitter_seed = seed;
    p.retryable_methods = {"echo.get"};
    rpc.set_retry_policy(p);
    net::FaultPlan plan;
    plan.fail_transfers = {1, 2, 3};
    ch.arm_fault_plan(plan);
    EXPECT_EQ(to_string(rpc.call("echo.get", to_bytes("x"))), "x");
    return clock.sleeps;
  };

  const auto a = schedule(42);
  const auto b = schedule(42);
  EXPECT_EQ(a, b);  // fixed seed: reproducible backoff
  ASSERT_EQ(a.size(), 3u);
  const std::uint64_t nominal[] = {10000, 20000, 40000};
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(a[i], nominal[i]);
    EXPECT_GE(a[i], nominal[i] / 2);  // jitter cuts at most 50%
  }
}

TEST(ResilienceTest, DeadlineBudgetAbandonsRetry) {
  net::Channel ch;
  net::RpcClient rpc(echo_server(), ch);
  FakeClock clock;
  rpc.set_clock(&clock);
  Counters events;
  rpc.set_counters(&events);

  net::RetryPolicy p;
  p.enabled = true;
  p.max_attempts = 10;
  p.initial_backoff_us = 1000;
  p.backoff_multiplier = 2.0;
  p.jitter = 0.0;
  p.deadline_us = 2500;  // allows the first 1000us backoff, not the 2000us one
  p.retryable_methods = {"echo.get"};
  rpc.set_retry_policy(p);

  net::FaultPlan plan;
  plan.outages = {{1, 1000}};  // hard down
  ch.arm_fault_plan(plan);

  try {
    rpc.call("echo.get", to_bytes("x"));
    FAIL() << "expected unavailable";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  // Attempt 1 fails, sleeps 1000; attempt 2 fails; the next 2000us backoff
  // would overrun 2500us total, so the call is abandoned without sleeping.
  ASSERT_EQ(clock.sleeps.size(), 1u);
  EXPECT_EQ(clock.sleeps[0], 1000u);
  EXPECT_EQ(clock.now_, 1000u);
  EXPECT_EQ(events.counter("net.retry.deadline"), 1u);
  EXPECT_EQ(events.counter("net.retry.attempt"), 1u);
}

TEST(ResilienceTest, NonWhitelistedMethodsFailFast) {
  net::Channel ch;
  net::RpcClient rpc(echo_server(), ch);
  FakeClock clock;
  rpc.set_clock(&clock);

  net::RetryPolicy p = net::RetryPolicy::standard();  // echo.get not listed
  p.jitter = 0.0;
  rpc.set_retry_policy(p);

  net::FaultPlan plan;
  plan.fail_transfers = {1};
  ch.arm_fault_plan(plan);

  EXPECT_THROW(rpc.call("echo.get", to_bytes("x")), Error);
  EXPECT_TRUE(clock.sleeps.empty());  // no retry attempted
  EXPECT_EQ(ch.transfers(), 1u);
}

TEST(ResilienceTest, StandardWhitelistCoversReadsAndKeyedOverwrites) {
  // The whitelist is the single gate for every re-send mechanism: plain
  // retries, replica failover after send, and hedged reads all consult it.
  const net::RetryPolicy p = net::RetryPolicy::standard();
  // Reads (trivially replayable), including the batched retrieval and
  // trapdoor-based search methods.
  for (const char* m :
       {"doc.get", "doc.mget", "doc.list", "det.search", "mitra.search",
        "mitrasl.search", "mitrasl.get_counter", "sophos.search", "iex.search",
        "zmf.search", "ope.range", "ore.range", "agg.sum", "admin.digest"}) {
    EXPECT_TRUE(p.retryable(m)) << m;
  }
  // Updates whose handlers are keyed overwrites absorb byte-identical replay.
  for (const char* m : {"doc.put", "det.insert", "mitra.update", "agg.insert",
                        "sophos.update", "rpc.batch"}) {
    EXPECT_TRUE(p.retryable(m)) << m;
  }
  // Anything else fails fast — unknown third-party methods are presumed
  // non-idempotent.
  for (const char* m : {"echo.get", "custom.append", "kms.rotate", ""}) {
    EXPECT_FALSE(p.retryable(m)) << m;
  }
}

TEST(ResilienceTest, NonWhitelistedMethodIsNeverResentAfterSend) {
  // The dangerous case: the request leg SHIPPED (the server may have
  // executed it) and the response leg faulted. For a method outside the
  // whitelist the client must surface the failure after exactly one
  // server-side execution — a blind re-send could double-apply it.
  net::RpcServer server;
  int calls = 0;
  server.register_method("custom.append", [&calls](BytesView b) {
    ++calls;
    return Bytes(b.begin(), b.end());
  });
  net::Channel ch;
  net::RpcClient rpc(server, ch);
  FakeClock clock;
  rpc.set_clock(&clock);
  rpc.set_retry_policy(net::RetryPolicy::standard());  // custom.* not listed

  net::FaultPlan plan;
  plan.fail_transfers = {2};  // ordinal 1 = request leg, 2 = response leg
  ch.arm_fault_plan(plan);

  try {
    rpc.call("custom.append", to_bytes("x"));
    FAIL() << "expected the lost response to surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(calls, 1);                // executed exactly once
  EXPECT_TRUE(clock.sleeps.empty());  // and never re-sent
}

TEST(ResilienceTest, TypedServerErrorsAreNotRetried) {
  net::RpcServer server;
  int calls = 0;
  server.register_method("always.fails", [&calls](BytesView) -> Bytes {
    ++calls;
    throw_error(ErrorCode::kNotFound, "no such thing");
  });
  net::Channel ch;
  net::RpcClient rpc(server, ch);
  FakeClock clock;
  rpc.set_clock(&clock);
  net::RetryPolicy p;
  p.enabled = true;
  p.retryable_methods = {"always.fails"};
  rpc.set_retry_policy(p);

  // A typed error is a delivered response — retrying cannot help.
  try {
    rpc.call("always.fails", {});
    FAIL() << "expected not-found";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps.empty());
}

// --- Circuit breaker ---------------------------------------------------------

TEST(ResilienceTest, BreakerWalksClosedOpenHalfOpenClosed) {
  net::Channel ch;
  net::RpcClient rpc(echo_server(), ch);
  FakeClock clock;
  rpc.set_clock(&clock);
  Counters events;
  rpc.set_counters(&events);

  net::BreakerConfig bc;
  bc.enabled = true;
  bc.failure_threshold = 2;
  bc.open_cooldown_us = 1000;
  ch.breaker().configure(bc);

  net::FaultPlan plan;
  plan.outages = {{1, 3}};  // transfers 1..3 down, healed from #4
  ch.arm_fault_plan(plan);

  using State = net::CircuitBreaker::State;
  EXPECT_EQ(ch.breaker().state(), State::kClosed);
  EXPECT_THROW(rpc.call("echo.get", to_bytes("x")), Error);  // failure 1
  EXPECT_EQ(ch.breaker().state(), State::kClosed);
  EXPECT_THROW(rpc.call("echo.get", to_bytes("x")), Error);  // failure 2: trips
  EXPECT_EQ(ch.breaker().state(), State::kOpen);
  EXPECT_EQ(events.counter("net.breaker.open"), 1u);

  // Open: calls shed without touching the channel.
  const std::uint64_t before = ch.transfers();
  try {
    rpc.call("echo.get", to_bytes("x"));
    FAIL() << "expected breaker rejection";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
    EXPECT_NE(std::string(e.what()).find("circuit breaker open"), std::string::npos);
  }
  EXPECT_EQ(ch.transfers(), before);
  EXPECT_EQ(events.counter("net.breaker.reject"), 1u);

  // Cooldown elapses; the half-open probe hits the last outage transfer (#3)
  // and fails: straight back to open.
  clock.now_ += 1500;
  EXPECT_THROW(rpc.call("echo.get", to_bytes("x")), Error);
  EXPECT_EQ(ch.breaker().state(), State::kOpen);
  EXPECT_EQ(events.counter("net.breaker.open"), 2u);

  // Second probe after another cooldown finds the channel healed: closed.
  clock.now_ += 1500;
  EXPECT_EQ(to_string(rpc.call("echo.get", to_bytes("x"))), "x");
  EXPECT_EQ(ch.breaker().state(), State::kClosed);
}

// --- Gateway integration: metrics + retried insert ---------------------------

TEST(ResilienceTest, GatewayRetriesInsertAndRecordsMetrics) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;

  core::GatewayConfig cfg;
  cfg.tactic_params = {{"paillier_modulus_bits", "256"},
                       {"sophos_modulus_bits", "512"}};
  cfg.retry = net::RetryPolicy::standard();
  cfg.retry.jitter_seed = 7;
  cfg.retry.initial_backoff_us = 10;  // keep the real-clock sleeps tiny
  cfg.retry.max_backoff_us = 100;
  cfg.breaker.enabled = true;
  cfg.breaker.failure_threshold = 50;  // present but not tripping here
  core::Gateway gateway(rpc, kms, local, registry(), cfg);
  gateway.register_schema(fhir::observation_schema("obs"));

  // Kill two doc.put request legs mid-insert; the retry layer must make
  // the insert succeed end to end anyway.
  net::FaultPlan plan;
  plan.method_faults = {{"doc.put", /*skip=*/0, /*count=*/2}};
  channel.set_fault_plan(plan);

  fhir::ObservationGenerator gen(3);
  Document d = gen.next();
  d.set("subject", Value("resilient-patient"));
  EXPECT_NO_THROW(gateway.insert("obs", d));
  channel.clear_fault_plan();

  EXPECT_EQ(channel.stats().faults_injected.load(), 2u);
  EXPECT_GE(gateway.perf().counter("net.retry.attempt"), 2u);
  EXPECT_GT(gateway.perf().counter("net.retry.backoff_us"), 0u);
  EXPECT_EQ(gateway.perf().counter("net.retry.giveup"), 0u);
  // Exactly-once: the retried insert produced one document, one index entry.
  EXPECT_EQ(
      gateway.equality_search("obs", "subject", Value("resilient-patient")).size(),
      1u);
  // The counter table renders in the perf report.
  EXPECT_NE(gateway.perf().report().find("net.retry.attempt"), std::string::npos);
}

// --- Deferred-section failure hygiene ----------------------------------------

TEST(ResilienceTest, FlushFailureLeavesNoQueueAndSectionCanRestart) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);

  auto put = [&](const std::string& id) {
    rpc.call("doc.put", wire::pack({{"col", Value("c")},
                                    {"id", Value(id)},
                                    {"blob", Value(Bytes{1, 2, 3})}}));
  };

  rpc.begin_deferred({"doc.put"});
  put("a");
  channel.close();
  EXPECT_THROW(rpc.flush_deferred(), Error);
  // The failed flush ended the section and dropped the queue.
  EXPECT_FALSE(rpc.in_deferred_section());
  channel.reopen();

  // A fresh section works immediately and ships only its own requests.
  rpc.begin_deferred({"doc.put"});
  put("b");
  EXPECT_EQ(rpc.flush_deferred(), 1u);
  EXPECT_FALSE(rpc.in_deferred_section());
  EXPECT_NO_THROW(rpc.call("doc.get", wire::pack({{"col", Value("c")},
                                                  {"id", Value("b")}})));
  // "a" was dropped with the failed flush, never silently delivered.
  EXPECT_THROW(rpc.call("doc.get", wire::pack({{"col", Value("c")},
                                               {"id", Value("a")}})),
               Error);
}

TEST(ResilienceTest, TakeDeferredCapturesQueueAndBatchReplayIsIdempotent) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);

  rpc.begin_deferred({"doc.put"});
  rpc.call("doc.put", wire::pack({{"col", Value("c")},
                                  {"id", Value("r")},
                                  {"blob", Value(Bytes{9})}}));
  const std::vector<net::Request> captured = rpc.take_deferred();
  EXPECT_FALSE(rpc.in_deferred_section());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].method, "doc.put");

  // Ship, then replay the identical bytes: keyed overwrite, same state.
  EXPECT_EQ(rpc.send_batch(captured), 1u);
  EXPECT_EQ(rpc.send_batch(captured), 1u);
  const Bytes reply = rpc.call(
      "doc.get", wire::pack({{"col", Value("c")}, {"id", Value("r")}}));
  EXPECT_EQ(wire::get_bin(wire::unpack(reply), "blob"), (Bytes{9}));
}

}  // namespace
}  // namespace datablinder
