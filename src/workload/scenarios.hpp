// The three evaluation scenarios of paper §5.2:
//   S_A — the application stores plaintext documents, no middleware, no
//         tactics (upper throughput bound);
//   S_B — the data protection tactics are hard-coded into the application:
//         concrete tactic classes wired by hand and run through the
//         gateway's own pipeline pieces (core/exec/runtime.hpp), with no
//         schema validation, policy engine, registry or metrics;
//   S_C — the application uses DataBlinder (full Gateway).
// All three talk to a fresh CloudNode over the same simulated channel (S_B
// and S_C put the same bytes on it), so the differences isolate (a) the
// tactics' cost and (b) the middleware's own overhead — the 44% / 1.4%
// decomposition of Figure 5.
#pragma once

#include <string>

#include "common/worker_pool.hpp"
#include "core/cloud_node.hpp"
#include "core/exec/runtime.hpp"
#include "core/gateway.hpp"
#include "core/sharding.hpp"
#include "doc/value.hpp"

namespace datablinder::workload {

/// The operations of the §5.2 mix: write (insert + secure indexing), read
/// (equality search) and aggregate (homomorphic average). The three
/// scenarios implement the same API, so one benchmark measures all three.
/// Implementations are thread-safe.
class ScenarioApi {
 public:
  virtual ~ScenarioApi() = default;

  /// Stores one observation (no id; the scenario assigns one).
  virtual void insert_document(doc::Document d) = 0;

  /// Equality search; returns the number of matching documents.
  virtual std::size_t equality_search(const std::string& field,
                                      const doc::Value& value) = 0;

  /// Cloud-side average of the `value` field.
  virtual double aggregate_average(const std::string& field) = 0;
};

/// Everything one scenario run needs: an isolated single-shard cloud,
/// its channel and the gateway-side resources.
struct ScenarioHarness {
  explicit ScenarioHarness(net::ChannelConfig channel_config = {});

  core::ShardedCloud cloud;
  net::RpcClient& rpc;          // cloud.client()
  core::CloudNode& cloud_node;  // shard 0, replica 0 (legacy accessors)
  net::Channel& channel;        // shard 0, replica 0
  kms::KeyManager kms;
  store::KvStore local_store;
};

/// S_A — plaintext baseline over the same store and channel.
class ScenarioA final : public ScenarioApi {
 public:
  explicit ScenarioA(ScenarioHarness& h);

  void insert_document(doc::Document d) override;
  std::size_t equality_search(const std::string& field, const doc::Value& value) override;
  double aggregate_average(const std::string& field) override;

 private:
  ScenarioHarness& h_;
};

/// S_B — the §5.2 tactic set (Mitra, RND, Paillier, 5x DET) wired by hand.
class ScenarioB final : public ScenarioApi {
 public:
  explicit ScenarioB(ScenarioHarness& h);

  void insert_document(doc::Document d) override;
  std::size_t equality_search(const std::string& field, const doc::Value& value) override;
  double aggregate_average(const std::string& field) override;

 private:
  ScenarioHarness& h_;
  // The hard-coded plan: exactly the 8 tactic instances of the paper's
  // benchmark, each in the slot of the field and operation it serves.
  core::exec::CollectionRuntime rt_;
  WorkerPool pool_;  // last: joined before the slots its steps touch die
};

/// S_C — the same policy enforced through DataBlinder.
class ScenarioC final : public ScenarioApi {
 public:
  ScenarioC(ScenarioHarness& h, const core::TacticRegistry& registry);

  void insert_document(doc::Document d) override;
  std::size_t equality_search(const std::string& field, const doc::Value& value) override;
  double aggregate_average(const std::string& field) override;

 private:
  core::Gateway gateway_;
};

}  // namespace datablinder::workload
