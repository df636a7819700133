// Gateway — the trusted-zone data protection gateway (Fig. 3, Fig. 4).
//
// Exposes the three application-facing interfaces of the deployment view:
//   * Schema   — register annotated schemas; the policy engine resolves
//                them to tactic plans and the registry instantiates the
//                gateway-side implementations at runtime.
//   * Entities — CRUD plus equality / boolean / range search and
//                aggregates. Writes go through one write path, and the
//                three searches through one read path: the core's fixed
//                pipeline (§4.2, Fig. 4) of index protocol, one batched
//                candidate retrieval and exact re-verification. An
//                equality search is a one-term boolean search; a range
//                search brings its own lookup and post-filter. Every stage
//                is timed as "core.<stage>"; the per-tactic index updates
//                of a write and the disjuncts of a boolean query fan out
//                over a small owned WorkerPool.
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

#include "common/worker_pool.hpp"
#include "core/cost_model.hpp"
#include "core/exec/intent_journal.hpp"
#include "core/exec/runtime.hpp"
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

  /// Retry policy installed on the cloud RPC client when its whitelist is
  /// non-empty. The default's is empty, so a default gateway leaves the
  /// client's policy as it was (none: fail fast). See
  /// net::RetryPolicy::standard().
  net::RetryPolicy retry;

  /// Crash-consistent writes: when true, every insert, insert_many, remove
  /// and update captures its cloud mutations instead of sending them,
  /// journals the exact requests into the local KvStore AOF before the first
  /// byte ships, sends them as one batch, and marks the intent complete
  /// after the batch lands (see exec::IntentJournal). Default off to keep
  /// the seed's per-call round-trip profile.
  bool journal_inserts = false;

  /// Adaptive cost-based range selection: when true, every admissible
  /// range candidate is instantiated alongside the static choice and the
  /// gateway re-ranks them per query by predicted cost (CostModel). When
  /// false (default) selection is byte-identical to the static §5.1 table.
  bool adaptive_selection = false;

  /// Tuning knobs for the adaptive cost model (ignored unless
  /// adaptive_selection is on).
  CostModel::Config cost;

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
  /// gated on the retry whitelist: install a `retry` whitelist too or
  /// nothing will ever hedge.
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

  // --- Entities interface --------------------------------------------------
  /// Validates, encrypts and stores the document; indexes every sensitive
  /// field through its tactics. Generates an id when d.id is empty
  /// (DocIDGen); returns the document id.
  DocId insert(const std::string& collection, doc::Document d);

  /// Bulk ingest: like insert() per document, but all fire-and-forget
  /// cloud mutations of the whole batch travel in ONE cloud round trip
  /// (captured RPC batching) — the WAN-facing fast path for initial data
  /// outsourcing. Tactics whose update protocol requires intermediate
  /// server reads (Mitra-SL) keep their per-update round trips.
  std::vector<DocId> insert_many(const std::string& collection,
                                 std::vector<doc::Document> docs);

  /// Fetches and decrypts one document. Throws kNotFound.
  doc::Document read(const std::string& collection, const DocId& id);

  /// Removes the document and all of its index entries. Throws kNotFound.
  void remove(const std::string& collection, const DocId& id);

  /// Replace semantics: the stored document d.id becomes `d`, and every
  /// index moves from the old values to the new ones in one write. Throws
  /// kNotFound when no document d.id exists.
  void update(const std::string& collection, doc::Document d);

  /// Equality search on one field; returns full decrypted documents. It is
  /// boolean_search of the one-term query {{{field, value}}}, timed under
  /// its own op.
  std::vector<doc::Document> equality_search(const std::string& collection,
                                             const std::string& field,
                                             const doc::Value& value);

  /// Boolean (conjunctive/disjunctive, cross-field) search. Each id is
  /// returned once, in the order its first disjunct found it.
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
  /// Replays every pending write intent left by a crash or fault (no-op
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

  /// The adaptive cost model, or nullptr when adaptive_selection is off.
  const CostModel* cost_model() const noexcept { return cost_model_.get(); }

 private:
  exec::CollectionRuntime& runtime(const std::string& collection);
  const exec::CollectionRuntime& runtime(const std::string& collection) const;

  GatewayContext make_context(const std::string& collection,
                              const std::string& field);

  static DocId generate_doc_id();

  /// Runs step(0), ..., step(n - 1): on the pool, or on this thread when
  /// n == 1. On the pool every step runs even if some throw and the
  /// lowest-index exception is rethrown here.
  void run_steps(std::size_t n, const std::function<void(std::size_t)>& step);

  /// The one read path: `lookup` in stage "core.index", one doc.mget of its
  /// ids in "core.resolve", and `keep` as the exact post-filter of the
  /// decrypted documents in "core.verify", each stage timed under `op`.
  std::vector<doc::Document> search(exec::CollectionRuntime& rt, TacticOperation op,
                                    const std::function<std::vector<DocId>()>& lookup,
                                    const std::function<bool(const doc::Document&)>& keep);

  /// search() of a DNF query: every conjunction routed first
  /// (CollectionRuntime::lookup), then looked up, fanned out when there
  /// are several, and the documents kept that satisfy some conjunction.
  std::vector<doc::Document> search(exec::CollectionRuntime& rt, TacticOperation op,
                                    const FieldBoolQuery& query);

  /// One doc.get round trip, opened and authenticated. Throws kNotFound.
  doc::Document get_document(const exec::CollectionRuntime& rt, const DocId& id);

  /// Replays the pending intent covering (collection, id), if any; returns
  /// whether there was one. A write of an id runs this first, so an
  /// interrupted write of it lands before the new one.
  bool resume_pending(const std::string& collection, const DocId& id);

  /// One document's change in a write: `before` is null for an insert,
  /// `after` null for a removal, and both are set for an update.
  struct Change {
    const doc::Document* before;
    const doc::Document* after;
  };

  /// The one write path: per change, a doc.put of `after` (or a doc.del of
  /// `before`) plus its write parts, fanned out on the pool. A single write
  /// with the journal off calls the cloud directly: store, parts, delete.
  /// Otherwise (`bulk`, or the journal on) each step is captured on the
  /// thread that runs it, and the captures ship in step order as one
  /// batch, journaled first when the journal is on.
  void write(exec::CollectionRuntime& rt, TacticOperation op,
             const std::vector<Change>& changes, bool bulk);

  net::RpcClient& cloud_;
  kms::KeyManager& kms_;
  store::KvStore& local_store_;
  const TacticRegistry& registry_;
  GatewayConfig config_;
  PolicyEngine policy_;
  PerfRegistry perf_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<exec::IntentJournal> journal_;

  mutable std::mutex collections_mutex_;
  std::map<std::string, std::unique_ptr<exec::CollectionRuntime>> collections_;

  WorkerPool pool_;  // last: joined before the state its steps touch dies
};

}  // namespace datablinder::core
