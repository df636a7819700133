// The cloud's running Paillier aggregate against the definition it
// replaces: agg.sum must return, byte for byte, the product mod n^2 of the
// column's current ciphertexts, however the column got there — inserts,
// removes, overwrites, journal replays, a repeated agg.setup, and a crafted
// ciphertext with no inverse mod n^2 — on one node, three replicas and
// four shards. Also run under TSan with inserts and sums in flight together.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "doc/wire.hpp"
#include "phe/paillier.hpp"

namespace datablinder {
namespace {

using bigint::BigInt;
using doc::Value;
namespace wire = doc::wire;

const phe::PaillierKeyPair& keys() {
  static const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  return kp;
}

/// A second key: a column set up again under a new modulus.
const phe::PaillierKeyPair& other_keys() {
  static const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  return kp;
}

core::GatewayConfig shape(std::size_t shards, std::size_t replicas) {
  core::GatewayConfig cfg;
  cfg.shards = shards;
  cfg.replicas = replicas;
  return cfg;
}

/// Drives the agg.* RPCs and keeps the plaintext model: id -> ciphertext.
struct Column {
  net::RpcClient& rpc;
  std::string scope;
  std::map<std::string, BigInt> model;
  const phe::PaillierPublicKey* key = &keys().pub;

  void setup() {
    rpc.call("agg.setup", wire::pack({{"scope", Value(scope)},
                                      {"n", Value(key->n.to_bytes())}}));
  }
  void insert(const std::string& id, const BigInt& ct) {
    rpc.call("agg.insert", wire::pack({{"scope", Value(scope)},
                                       {"id", Value(id)},
                                       {"ct", Value(ct.to_bytes())}}));
    model[id] = ct;
  }
  void remove(const std::string& id) {
    rpc.call("agg.remove", wire::pack({{"scope", Value(scope)}, {"id", Value(id)}}));
    model.erase(id);
  }
  /// The fold agg.sum used to compute, over the model.
  Bytes folded() const {
    BigInt acc(1);
    for (const auto& [id, ct] : model) acc = acc.mul_mod(ct, key->n_squared);
    return acc.to_bytes();
  }
  void expect_sum_matches_fold(const std::string& where) {
    const doc::Object resp =
        wire::unpack(rpc.call("agg.sum", wire::pack({{"scope", Value(scope)}})));
    EXPECT_EQ(wire::get_bin(resp, "sum_ct"), folded()) << where;
    EXPECT_EQ(wire::get_int(resp, "count"), static_cast<std::int64_t>(model.size()))
        << where;
  }
};

void run_random_sequence(core::ShardedCloud& cloud, std::uint64_t seed) {
  Column col{cloud.client(), "prop.agg", {}};
  col.setup();
  col.expect_sum_matches_fold("empty column");

  DetRng rng(seed);
  // A ciphertext sharing the factor p with n: the gateway never sends one,
  // but the cloud must stay exact if it arrives (re-fold fallback).
  const BigInt crafted = keys().priv.p * BigInt(3);
  for (int step = 0; step < 300; ++step) {
    const std::string id = "d" + std::to_string(rng.uniform(24));
    const std::string where = "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
    switch (rng.uniform(8)) {
      case 0:
      case 1:
      case 2:  // insert, or overwrite when the id is present
        col.insert(id, keys().pub.encrypt_i64(static_cast<std::int64_t>(rng.uniform(1000))));
        break;
      case 3:  // journal replay: the same id and bytes again
        if (auto it = col.model.find(id); it != col.model.end()) col.insert(id, it->second);
        break;
      case 4:
      case 5:
        col.remove(id);
        break;
      case 6:
        if (step % 50 == 6) col.insert(id, crafted);
        break;
      default:
        if (step % 100 == 7) col.setup();  // repeated setup: re-fold once
        break;
    }
    if (step % 3 == 0) col.expect_sum_matches_fold(where);
  }
  // Retire the crafted ciphertext explicitly, then sum: `removed` has no
  // inverse and the node must fall back to folding its column.
  col.insert("crafted", crafted);
  col.expect_sum_matches_fold("crafted present");
  col.remove("crafted");
  col.expect_sum_matches_fold("crafted removed");
  col.insert("d0", crafted);
  col.insert("d0", keys().pub.encrypt_i64(5));
  col.expect_sum_matches_fold("crafted overwritten");
  // Set up again under another modulus: the running products must be
  // rebuilt mod the new n^2 from the ciphertexts the column holds.
  col.remove("d1");
  col.key = &other_keys().pub;
  col.setup();
  col.expect_sum_matches_fold("setup under a new modulus");

  // An honest column still decrypts to the plaintext sum.
  Column clean{cloud.client(), "prop.clean", {}};
  clean.setup();
  for (int i = 0; i < 20; ++i) {
    clean.insert("c" + std::to_string(i % 7), keys().pub.encrypt_i64(i));
  }
  clean.remove("c1");
  clean.remove("c4");
  // The last write per id is 13..19 (c6, c0, ..., c5); c1 (15) and c4 (18) are gone.
  const std::int64_t total = 13 + 14 + 16 + 17 + 19;
  clean.expect_sum_matches_fold("clean column");
  const doc::Object resp =
      wire::unpack(cloud.client().call("agg.sum", wire::pack({{"scope", Value("prop.clean")}})));
  EXPECT_EQ(keys().priv.decrypt_i64(BigInt::from_bytes(wire::get_bin(resp, "sum_ct"))), total);
}

TEST(RunningAggregateTest, MatchesFoldOnOneNode) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    core::ShardedCloud cloud(shape(1, 1));
    run_random_sequence(cloud, seed);
  }
}

TEST(RunningAggregateTest, MatchesFoldOnThreeReplicas) {
  core::ShardedCloud cloud(shape(1, 3));
  run_random_sequence(cloud, 4);
  // Replicas applied the same log: their columns agree.
  EXPECT_EQ(cloud.node(0, 0).state_digest(), cloud.node(0, 1).state_digest());
  EXPECT_EQ(cloud.node(0, 0).state_digest(), cloud.node(0, 2).state_digest());
}

TEST(RunningAggregateTest, MatchesFoldOnFourShards) {
  core::ShardedCloud cloud(shape(4, 1));
  run_random_sequence(cloud, 5);
}

TEST(RunningAggregateTest, ConcurrentInsertsAndSums) {
  for (std::size_t shards : {1u, 4u}) {
    core::ShardedCloud cloud(shape(shards, 1));
    Column col{cloud.client(), "conc.agg", {}};
    col.setup();
    constexpr int kWriters = 3;
    constexpr int kPerWriter = 40;
    std::vector<std::vector<BigInt>> cts(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kPerWriter; ++i) cts[w].push_back(keys().pub.encrypt_i64(w * 100 + i));
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          const std::string id = "w" + std::to_string(w) + "-" + std::to_string(i % 30);
          cloud.client().call("agg.insert", wire::pack({{"scope", Value(col.scope)},
                                                        {"id", Value(id)},
                                                        {"ct", Value(cts[w][i].to_bytes())}}));
          if (i % 10 == 9) {
            cloud.client().call("agg.remove",
                                wire::pack({{"scope", Value(col.scope)}, {"id", Value(id)}}));
          }
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        cloud.client().call("agg.sum", wire::pack({{"scope", Value(col.scope)}}));
      }
    });
    for (auto& t : threads) t.join();

    // Replay the writers' effect on the model: ids are per-writer, so the
    // final state does not depend on how the threads interleaved.
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string id = "w" + std::to_string(w) + "-" + std::to_string(i % 30);
        col.model[id] = cts[w][i];
        if (i % 10 == 9) col.model.erase(id);
      }
    }
    col.expect_sum_matches_fold("shards=" + std::to_string(shards));
  }
}

}  // namespace
}  // namespace datablinder
