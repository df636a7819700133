// Gateway — the trusted-zone data protection gateway (Fig. 3, Fig. 4).
//
// Exposes the three application-facing interfaces of the deployment view:
//   * Schema   — register annotated schemas; the policy engine resolves
//                them to tactic plans and the registry instantiates the
//                gateway-side implementations at runtime.
//   * Entities — CRUD plus equality / boolean / range search and
//                aggregates. Every operation is compiled by the exec
//                Planner into an OperationPlan (index fan-out, batched
//                candidate retrieval, exact re-verification) and run by
//                the exec Executor; the gateway itself is a thin wrapper
//                that validates input, builds the plan, and runs it.
//   * Keys     — access to the key manager (HSM integration point).
//
// Concurrency: one reader/writer lock per tactic instance (see
// exec/runtime.hpp) — index mutations are exclusive per tactic, so writes
// to distinct fields proceed in parallel, while queries run shared.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/exec/executor.hpp"
#include "core/exec/intent_journal.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/runtime.hpp"
#include "core/hot_cache.hpp"
#include "core/metrics.hpp"
#include "core/policy.hpp"
#include "core/registry.hpp"
#include "doc/value.hpp"
#include "net/replica_group.hpp"
#include "net/shard_router.hpp"

namespace datablinder::core {

struct GatewayConfig {
  /// Forwarded to every tactic's GatewayContext (e.g.
  /// "paillier_modulus_bits", "sophos_modulus_bits", "zmf_filter_bits").
  std::map<std::string, std::string> tactic_params;

  /// Retry policy installed on the cloud RPC client when .enabled (default
  /// off: the seed fails fast). See net::RetryPolicy::standard().
  net::RetryPolicy retry;

  /// Circuit-breaker configuration applied to the cloud channel when
  /// .enabled (default off). Only a single-endpoint client has a breaker;
  /// replica groups track health by failure accrual instead.
  net::BreakerConfig breaker;

  /// Crash-consistent inserts: when true, every insert/insert_many runs in
  /// RPC-capture mode, journals the exact cloud mutations into the local
  /// KvStore AOF before the first byte ships, and marks the intent
  /// complete after the batch lands (see exec::IntentJournal). Default off
  /// to keep the seed's per-call round-trip profile.
  bool journal_inserts = false;

  /// Adaptive cost-based range selection: when true, every admissible
  /// range candidate is instantiated alongside the static choice and the
  /// planner re-ranks them per query by predicted cost (CostModel). When
  /// false (default) selection is byte-identical to the static §5.1 table.
  bool adaptive_selection = false;

  /// Tuning knobs for the adaptive cost model (ignored unless
  /// adaptive_selection is on).
  CostModel::Config cost;

  /// Entry capacity of the gateway hot cache (trapdoors, deterministic
  /// labels, Montgomery contexts, decrypted documents). 0 (default)
  /// disables the cache entirely.
  std::size_t hot_cache_capacity = 0;

  /// Cloud replicas per shard for ShardedCloud (core/sharding.hpp).
  /// With replicas = 1 and hedging off, no replication layer is built
  /// at all and the wire behaviour is byte-identical to a single-node
  /// stack. With > 1, writes are applied on the primary and replayed
  /// byte-identically to every backup before acknowledgement; reads route
  /// to the healthiest in-sync replica.
  std::size_t replicas = 1;

  /// Hedged reads (hedge.enabled): replay-idempotent reads fire a
  /// speculative duplicate to the next-best replica after a p95-derived
  /// delay; first success wins. A hedge is a speculative retry, so it is
  /// gated on the retry whitelist: enable `retry` too or nothing will ever
  /// hedge.
  net::HedgeConfig hedge;

  /// Failure-accrual tuning for per-replica health / failover.
  net::AccrualConfig accrual;

  /// Shard count for ShardedCloud (core/sharding.hpp). With shards = 1
  /// (default) no router is built and the stack is one replica set (or,
  /// at replicas = 1 without hedging, the plain single-node client). With > 1,
  /// each shard is its own replica set (`replicas` nodes) and a
  /// consistent-hash router scatters keys across them: documents by id,
  /// SSE postings by keyword token, scope-coupled structures whole.
  std::size_t shards = 1;
};

class Gateway {
 public:
  Gateway(net::RpcClient& cloud, kms::KeyManager& kms, store::KvStore& local_store,
          const TacticRegistry& registry, GatewayConfig config = {});

  /// Unbinds perf() from the shared RpcClient; once it returns, no net
  /// layer counts into this gateway any more. Destroy a gateway before
  /// constructing its successor on the same client.
  ~Gateway();

  // --- Schema interface --------------------------------------------------
  /// Registers a schema: runs policy selection, instantiates and sets up
  /// every selected tactic. Throws kAlreadyExists for duplicate names and
  /// kPolicyViolation when annotations cannot be satisfied.
  void register_schema(schema::Schema s);

  const CollectionPlan& plan(const std::string& collection) const;
  const schema::Schema& schema_of(const std::string& collection) const;

  // --- Entities interface --------------------------------------------------
  /// Validates, encrypts and stores the document; indexes every sensitive
  /// field through its tactics. Generates an id when d.id is empty
  /// (DocIDGen); returns the document id.
  DocId insert(const std::string& collection, doc::Document d);

  /// Bulk ingest: like insert() per document, but all fire-and-forget
  /// index updates of the whole batch travel in ONE cloud round trip
  /// (deferred RPC batching) — the WAN-facing fast path for initial data
  /// outsourcing. Tactics whose update protocol requires intermediate
  /// server reads (Mitra-SL) are automatically excluded from deferral and
  /// keep their per-update round trips.
  std::vector<DocId> insert_many(const std::string& collection,
                                 std::vector<doc::Document> docs);

  /// Fetches and decrypts one document. Throws kNotFound.
  doc::Document read(const std::string& collection, const DocId& id);

  /// Removes the document and all of its index entries.
  void remove(const std::string& collection, const DocId& id);

  /// Replace semantics: remove(d.id) + insert(d).
  void update(const std::string& collection, doc::Document d);

  /// Equality search on one field; returns full decrypted documents.
  std::vector<doc::Document> equality_search(const std::string& collection,
                                             const std::string& field,
                                             const doc::Value& value);

  /// Boolean (conjunctive/disjunctive, cross-field) search.
  std::vector<doc::Document> boolean_search(const std::string& collection,
                                            const FieldBoolQuery& query);

  /// Inclusive range search on one numeric field.
  std::vector<doc::Document> range_search(const std::string& collection,
                                          const std::string& field,
                                          const doc::Value& lo, const doc::Value& hi);

  /// Aggregate over one field (sum / average / count / min / max).
  AggregateResult aggregate(const std::string& collection, const std::string& field,
                            schema::Aggregate agg);

  // --- Recovery ----------------------------------------------------------
  /// Replays every pending insert intent left by a crash or fault (no-op
  /// unless journal_inserts is on). Call after constructing a gateway over
  /// a semi-persistent local store. Returns how many intents completed.
  std::size_t recover_pending_inserts();

  /// The intent journal, or nullptr when journal_inserts is off.
  exec::IntentJournal* journal() noexcept { return journal_.get(); }

  // --- Keys interface --------------------------------------------------------
  kms::KeyManager& keys() noexcept { return kms_; }

  // --- Observability -----------------------------------------------------------
  /// Per-(tactic, operation) latency series recorded around every tactic
  /// protocol invocation, plus "core.<stage>" series for every pipeline
  /// stage (the Fig. 1 performance-metrics reification).
  const PerfRegistry& perf() const noexcept { return perf_; }
  PerfRegistry& perf() noexcept { return perf_; }

  /// The gateway hot cache, or nullptr when hot_cache_capacity is 0.
  const HotCache* cache() const noexcept { return cache_.get(); }
  HotCache* cache() noexcept { return cache_.get(); }

  /// The adaptive cost model, or nullptr when adaptive_selection is off.
  const CostModel* cost_model() const noexcept { return cost_model_.get(); }

 private:
  exec::CollectionRuntime& runtime(const std::string& collection);
  const exec::CollectionRuntime& runtime(const std::string& collection) const;

  GatewayContext make_context(const std::string& collection,
                              const std::string& field);

  static DocId generate_doc_id();

  /// Runs `body` in RPC-capture mode, journals the captured mutations for
  /// `ids`, ships them as one batch, then completes the intent.
  void journaled_run(const std::string& collection,
                     const std::vector<std::string>& ids,
                     const std::function<void()>& body);

  net::RpcClient& cloud_;
  kms::KeyManager& kms_;
  store::KvStore& local_store_;
  const TacticRegistry& registry_;
  GatewayConfig config_;
  PolicyEngine policy_;
  PerfRegistry perf_;
  std::unique_ptr<HotCache> cache_;      // before planner_: planner holds the pointer
  std::unique_ptr<CostModel> cost_model_;
  exec::Planner planner_;
  exec::Executor executor_;
  std::unique_ptr<exec::IntentJournal> journal_;

  mutable std::mutex collections_mutex_;
  std::map<std::string, std::unique_ptr<exec::CollectionRuntime>> collections_;
};

}  // namespace datablinder::core
