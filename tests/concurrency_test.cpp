// Concurrency tests: the gateway serves parallel users without corrupting
// tactic state or indexes; the cloud node handles concurrent RPC dispatch;
// stores behave under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bigint/bigint.hpp"
#include "common/worker_pool.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/hot_cache.hpp"
#include "core/tactics/builtin.hpp"
#include "fhir/observation.hpp"
#include "net/resilience.hpp"
#include "store/kvstore.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

TEST(ConcurrencyTest, KvStoreParallelMixedOps) {
  store::KvStore kv;
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string(i % 17);
        kv.set(key, Bytes{static_cast<std::uint8_t>(t)});
        kv.sadd("set", std::to_string(t * kOps + i));
        kv.incr("counter");
        kv.zadd("z", Bytes{static_cast<std::uint8_t>(i % 251)}, std::to_string(i));
        kv.get(key);
        kv.zrange("z", Bytes{0}, Bytes{255});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.incr("counter", 0), kThreads * kOps);
  EXPECT_EQ(kv.scard("set"), static_cast<std::size_t>(kThreads * kOps));
}

TEST(ConcurrencyTest, CollectionParallelPutFind) {
  store::Collection col("c");
  col.create_index("v");
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&col, t] {
      for (int i = 0; i < 200; ++i) {
        Document d;
        d.id = std::to_string(t) + "-" + std::to_string(i);
        d.set("v", Value(std::int64_t{i % 13}));
        col.put(std::move(d));
        col.find(store::Filter::eq("v", Value(std::int64_t{i % 13})));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(col.size(), 6u * 200u);
  // Index consistency: each value class has exactly the expected members.
  std::size_t total = 0;
  for (std::int64_t v = 0; v < 13; ++v) {
    total += col.find(store::Filter::eq("v", Value(v))).size();
  }
  EXPECT_EQ(total, 6u * 200u);
}

TEST(ConcurrencyTest, GatewayParallelUsersStayConsistent) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gateway(rpc, kms, local, registry,
                        core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gateway.register_schema(fhir::benchmark_schema("obs"));

  constexpr int kUsers = 6;
  constexpr int kDocsPerUser = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> users;
  for (int u = 0; u < kUsers; ++u) {
    users.emplace_back([&, u] {
      try {
        fhir::ObservationGenerator gen(1000 + u);
        for (int i = 0; i < kDocsPerUser; ++i) {
          Document d = gen.next();
          d.set("subject", Value("user" + std::to_string(u)));
          gateway.insert("obs", d);
          // Interleave reads with writes.
          gateway.equality_search("obs", "subject",
                                  Value("user" + std::to_string(u)));
          if (i % 5 == 0) {
            gateway.aggregate("obs", "value", schema::Aggregate::kAverage);
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : users) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-conditions: every user's documents are all present and searchable.
  for (int u = 0; u < kUsers; ++u) {
    EXPECT_EQ(gateway
                  .equality_search("obs", "subject", Value("user" + std::to_string(u)))
                  .size(),
              static_cast<std::size_t>(kDocsPerUser))
        << "user " << u;
  }
  const auto avg = gateway.aggregate("obs", "value", schema::Aggregate::kAverage);
  EXPECT_EQ(avg.count, static_cast<std::uint64_t>(kUsers * kDocsPerUser));
}

TEST(ConcurrencyTest, ParallelSearchesDuringWrites) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);
  core::Gateway gateway(rpc, kms, local, registry,
                        core::GatewayConfig{{{"paillier_modulus_bits", "256"}}});
  gateway.register_schema(fhir::benchmark_schema("obs"));

  std::atomic<bool> stop{false};
  std::atomic<int> search_errors{0};
  std::thread reader([&] {
    fhir::ObservationGenerator gen(5);
    while (!stop.load()) {
      try {
        // Results must always be internally consistent (every returned doc
        // actually matches), regardless of concurrent writes.
        const auto v = gen.random_status();
        for (const auto& d : gateway.equality_search("obs", "status", v)) {
          if (!(d.at("status") == v)) ++search_errors;
        }
      } catch (...) {
        ++search_errors;
      }
    }
  });

  fhir::ObservationGenerator gen(6);
  for (int i = 0; i < 60; ++i) gateway.insert("obs", gen.next());
  stop = true;
  reader.join();
  EXPECT_EQ(search_errors.load(), 0);
}

// --- per-tactic locking: proof of actual parallelism -------------------------
//
// A rendezvous tactic whose on_insert blocks until `expected` concurrent
// arrivals have checked in. If index updates were serialized behind a
// collection-wide exclusive lock (the pre-exec-subsystem model), the second
// arrival could never happen while the first holds the lock and the
// rendezvous would time out.

struct Rendezvous {
  std::atomic<int> arrivals{0};
  int expected = 2;
  std::atomic<bool> timed_out{false};

  void meet() {
    arrivals.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrivals.load() < expected) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

class RendezvousTactic : public core::FieldTactic {
 public:
  explicit RendezvousTactic(std::shared_ptr<Rendezvous> rv) : rv_(std::move(rv)) {}

  static core::TacticDescriptor static_descriptor() {
    core::TacticDescriptor d;
    d.name = "Rendezvous";
    d.protection_class = schema::ProtectionClass::kClass5;
    d.serves_operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    d.preference = 1000;  // outbid DET on the C5 equality tie
    return d;
  }

  const core::TacticDescriptor& descriptor() const override {
    static const core::TacticDescriptor d = static_descriptor();
    return d;
  }
  void setup() override {}
  void on_insert(const core::DocId&, const doc::Value&) override { rv_->meet(); }
  void on_delete(const core::DocId&, const doc::Value&) override {}
  std::vector<core::DocId> equality_search(const doc::Value&) override { return {}; }

 private:
  std::shared_ptr<Rendezvous> rv_;
};

struct RendezvousRig {
  RendezvousRig() : rpc(cloud.rpc(), channel) {
    core::register_builtin_tactics(registry);
    registry.register_field_tactic(
        RendezvousTactic::static_descriptor(),
        [rv = rendezvous](const core::GatewayContext&) {
          return std::make_unique<RendezvousTactic>(rv);
        });
  }

  schema::Schema schema_with(const std::string& name,
                             std::initializer_list<const char*> fields) {
    schema::Schema s(name);
    schema::FieldAnnotation f;
    f.type = schema::FieldType::kString;
    f.sensitive = true;
    f.protection = schema::ProtectionClass::kClass5;
    f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
    for (const char* field : fields) s.field(field, f);
    return s;
  }

  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
  kms::KeyManager kms;
  store::KvStore local;
  core::TacticRegistry registry;
  std::shared_ptr<Rendezvous> rendezvous = std::make_shared<Rendezvous>();
};

TEST(IndexFanOutTest, OneInsertIndexesItsFieldsInParallel) {
  // Intra-plan fan-out: a single insert's per-field index steps run on the
  // executor's worker pool concurrently.
  RendezvousRig rig;
  core::Gateway gw(rig.rpc, rig.kms, rig.local, rig.registry);
  gw.register_schema(rig.schema_with("c", {"a", "b"}));
  ASSERT_EQ(gw.plan("c").fields.at("a").eq_tactic, "Rendezvous");

  Document d;
  d.set("a", Value("x"));
  d.set("b", Value("y"));
  gw.insert("c", d);

  EXPECT_FALSE(rig.rendezvous->timed_out.load());
  EXPECT_EQ(rig.rendezvous->arrivals.load(), 2);
}

TEST(IndexFanOutTest, DistinctFieldWritersOfOneCollectionRunInParallel) {
  // Inter-plan parallelism: two users inserting documents that touch
  // DISTINCT fields of the SAME collection contend on nothing — each
  // writer takes only its own field's tactic lock.
  RendezvousRig rig;
  core::Gateway gw(rig.rpc, rig.kms, rig.local, rig.registry, {});
  gw.register_schema(rig.schema_with("c", {"a", "b"}));

  std::thread t1([&] {
    Document d;
    d.set("a", Value("x"));
    gw.insert("c", d);
  });
  std::thread t2([&] {
    Document d;
    d.set("b", Value("y"));
    gw.insert("c", d);
  });
  t1.join();
  t2.join();

  EXPECT_FALSE(rig.rendezvous->timed_out.load());
  EXPECT_EQ(rig.rendezvous->arrivals.load(), 2);
}

TEST(IndexFanOutTest, DistinctCollectionWritersRunInParallel) {
  RendezvousRig rig;
  core::Gateway gw(rig.rpc, rig.kms, rig.local, rig.registry, {});
  gw.register_schema(rig.schema_with("left", {"a"}));
  gw.register_schema(rig.schema_with("right", {"a"}));

  std::thread t1([&] {
    Document d;
    d.set("a", Value("x"));
    gw.insert("left", d);
  });
  std::thread t2([&] {
    Document d;
    d.set("a", Value("y"));
    gw.insert("right", d);
  });
  t1.join();
  t2.join();

  EXPECT_FALSE(rig.rendezvous->timed_out.load());
  EXPECT_EQ(rig.rendezvous->arrivals.load(), 2);
}

TEST(ConcurrencyTest, ChannelConfigMutationRacesTransfers) {
  // Regression: set_config() used to write the config while transfer_*
  // read it unguarded — a data race TSan flags. Transfers running
  // concurrently with config/fault-plan churn must see either the old or
  // the new config, never a torn mix, and the ordinal counter must stay
  // exact.
  net::Channel ch;
  constexpr int kTransferThreads = 4;
  constexpr int kOps = 500;
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kTransferThreads; ++t) {
    threads.emplace_back([&ch, &completed] {
      for (int i = 0; i < kOps; ++i) {
        // Every transfer_* call consumes exactly one ordinal, delivered or
        // faulted; a faulted request skips the response leg.
        bool request_ok = true;
        try {
          ch.transfer_request(64, "m.op");
        } catch (const Error&) {
          request_ok = false;
        }
        completed.fetch_add(1);
        if (request_ok) {
          try {
            ch.transfer_response(64, "m.op");
          } catch (const Error&) {
          }
          completed.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&ch] {
    for (int i = 0; i < 200; ++i) {
      net::ChannelConfig cfg;
      cfg.failure_probability = (i % 2 == 0) ? 0.0 : 0.05;
      cfg.fault_seed = static_cast<std::uint64_t>(i + 1);
      ch.set_config(cfg);
      ch.config();
      if (i % 50 == 0) {
        net::FaultPlan plan;
        plan.method_faults = {{"m.", 0, 3}};
        ch.set_fault_plan(plan);
      } else if (i % 50 == 25) {
        ch.clear_fault_plan();
      }
    }
  });
  for (auto& t : threads) t.join();

  // Every attempted transfer (delivered or faulted) got a unique ordinal.
  EXPECT_EQ(ch.transfers(), completed.load());
  EXPECT_EQ(ch.stats().bytes_sent.load() % 64, 0u);
}

TEST(ConcurrencyTest, HotCacheReadsRaceInvalidation) {
  // The gateway's hot cache serves trapdoors and decrypted documents from
  // query threads while mutating operations bump epochs and erase keys.
  // Racing readers against invalidators must stay TSan-clean: a get sees
  // a fresh value or a miss, never a torn entry, and the counters balance.
  core::HotCache cache(nullptr, core::HotCache::Config{64});
  constexpr int kReaders = 4;
  constexpr int kOps = 2000;
  std::atomic<std::uint64_t> served{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&cache, &served, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "doc/obs/" + std::to_string(i % 97);
        const auto cached = cache.get(key);
        if (cached.has_value()) {
          // Values are never torn: each entry is one byte tagged by its
          // writer, re-put whole.
          ASSERT_EQ(cached->size(), 1u);
          served.fetch_add(1);
        } else {
          cache.put(key, Bytes{static_cast<std::uint8_t>(t)}, "obs");
        }
        if (i % 31 == 0) {
          cache.montgomery(bigint::BigInt(257));  // shared, never evicted
        }
      }
    });
  }
  // Fixed iteration count (not a stop flag): the invalidator is
  // guaranteed its bumps even if the scheduler starves it until the
  // readers are done, so the counter floor below is deterministic.
  threads.emplace_back([&cache] {
    for (int n = 1; n <= 600; ++n) {
      if (n % 3 == 0) {
        cache.bump_epoch("obs");
      } else {
        cache.erase("doc/obs/" + std::to_string(n % 97));
      }
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.hits(), served.load());
  EXPECT_GE(cache.invalidations(), 1u);
  // Montgomery contexts dedupe to one shared instance per modulus.
  EXPECT_EQ(cache.montgomery(bigint::BigInt(257)),
            cache.montgomery(bigint::BigInt(257)));
}

TEST(ConcurrencyTest, BreakerHalfOpenAdmitsExactlyOneProbePerWindow) {
  // Regression for the half-open probe token: when the cooldown elapses and
  // many callers race try_admit at the same instant, exactly ONE of them
  // may own the probe. A second probe would double the load on an endpoint
  // the breaker believes is down — the opposite of load shedding.
  net::CircuitBreaker breaker;
  net::BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failure_threshold = 1;
  cfg.open_cooldown_us = 10000;
  breaker.configure(cfg);

  breaker.on_failure(/*now_us=*/1000);  // trips open
  ASSERT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.try_admit(1000 + cfg.open_cooldown_us - 1));

  auto race_admits = [&breaker](std::uint64_t now_us) {
    constexpr int kThreads = 16;
    std::atomic<int> admitted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&breaker, &admitted, now_us] {
        for (int i = 0; i < 50; ++i) {
          if (breaker.try_admit(now_us)) admitted.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    return admitted.load();
  };

  // Window 1: cooldown elapsed, 16 threads x 50 attempts -> one token.
  EXPECT_EQ(race_admits(1000 + cfg.open_cooldown_us), 1);
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kHalfOpen);

  // The probe's owner never reports an outcome (e.g. its thread died
  // between admission and the call). After a FULL further cooldown the
  // token is reclaimed — again to exactly one new owner.
  EXPECT_EQ(race_admits(1000 + 2 * cfg.open_cooldown_us - 1), 0);
  EXPECT_EQ(race_admits(1000 + 2 * cfg.open_cooldown_us), 1);

  // A reported outcome resolves the window: success closes the breaker and
  // admission goes wide open again.
  breaker.on_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(race_admits(1000 + 3 * cfg.open_cooldown_us), 16 * 50);

  // ...and a failed probe re-opens with a fresh cooldown, one probe again.
  breaker.on_failure(/*now_us=*/500000);
  ASSERT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(race_admits(500000 + cfg.open_cooldown_us - 1), 0);
  EXPECT_EQ(race_admits(500000 + cfg.open_cooldown_us), 1);
}

// --- WorkerPool::run_all -----------------------------------------------------

TEST(WorkerPoolRunAllTest, EveryIndexRunsExactlyOnceWhenNFarExceedsThreads) {
  WorkerPool pool(2);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  pool.run_all(kN, [&runs](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(WorkerPoolRunAllTest, CallerAloneCompletesWhenEveryWorkerIsBlocked) {
  // Progress must not depend on a worker: the pool's only thread is parked
  // on a latch for the whole run_all, so the caller has to run all four.
  WorkerPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  pool.run_all(4, [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  release.set_value();
}

TEST(WorkerPoolRunAllTest, LowestIndexExceptionArrivesAfterEveryIndexRan) {
  // Index 3 throws late, so a first-to-fail policy would usually report 5.
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> runs(8);
    try {
      pool.run_all(8, [&runs](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (i == 3 || i == 5) throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "run_all swallowed both exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "index 3");
    }
    for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolRunAllTest, LateHelpersNeverTouchTheReturnedCallersFrame) {
  // Two callers share a small pool and issue many short run_alls back to
  // back, so helpers queue behind each other and often start after their
  // call returned and its `fn` and captured state were destroyed. ASan and
  // TSan flag any access a late helper makes to that frame.
  WorkerPool pool(2);
  auto caller = [&pool] {
    for (int round = 0; round < 2000; ++round) {
      const std::size_t n = 2 + static_cast<std::size_t>(round % 3);
      std::vector<std::size_t> slots(n, 0);
      const std::function<void(std::size_t)> fn = [&slots](std::size_t i) {
        slots[i] = i + 1;
      };
      pool.run_all(n, fn);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(slots[i], i + 1);
    }
  };
  std::thread other(caller);
  caller();
  other.join();
}

}  // namespace
}  // namespace datablinder
