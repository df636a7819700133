// OperationPlan / Planner — the plan half of the middleware core's
// plan/execute split (§4.2, Fig. 4).
//
// The paper's core is conceptually a pipeline: policy-driven tactic
// selection (done once per schema, producing the CollectionPlan), then per
// operation an index-protocol fan-out, candidate retrieval, and exact
// re-verification. The Planner reifies that pipeline: it compiles one
// gateway operation against a CollectionRuntime into an OperationPlan — a
// layered DAG of stages whose steps are independent tactic invocations —
// and the Executor runs it. Keeping the plan explicit is what lets the
// Executor fan independent per-field index updates across a worker pool
// and batch candidate retrieval into a single round trip.
#pragma once

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/exec/runtime.hpp"
#include "core/metrics.hpp"

namespace datablinder::core {

class CostModel;
class HotCache;

/// One predicate of a boolean query: field == value.
struct FieldTerm {
  std::string field;
  doc::Value value;
};

/// Boolean query in DNF over field terms: OR over AND-lists.
struct FieldBoolQuery {
  std::vector<std::vector<FieldTerm>> dnf;
};

namespace exec {

/// One node of the plan DAG: a single tactic (or store) invocation. The
/// Executor acquires `lock` in the requested mode around run(); steps that
/// need finer-grained locking (multi-term conjunctions) leave it null and
/// lock internally, one tactic at a time.
struct PlanStep {
  std::string label;                 // diagnostic, e.g. "eq:DET:subject"
  std::shared_mutex* lock = nullptr;
  bool exclusive = false;
  std::function<void()> run;
};

/// Steps within a stage are mutually independent — the Executor may run
/// them concurrently. Stages run strictly in order (the DAG is layered).
struct PlanStage {
  std::string name;  // PerfRegistry key suffix: "store", "index", ...
  std::vector<PlanStep> steps;
};

/// Mutable scratchpad threaded through the stages of one query plan:
/// the index stage fills id_slots, the resolve stage turns them into
/// decrypted documents, the verify stage filters in place.
struct QueryScratch {
  std::vector<std::vector<DocId>> id_slots;  // one per index-query step
  bool approximate = false;                  // any candidate set approximate
  std::vector<doc::Document> docs;
  AggregateResult agg;
};

/// A compiled gateway operation. Plans capture references to the caller's
/// arguments and runtime — they must be executed before those die (the
/// gateway builds and runs them in one frame).
struct OperationPlan {
  std::string collection;
  TacticOperation op;          // stage-timing perf key
  /// True when the plan was built inside a deferred-RPC section: the
  /// Executor must stay on the calling thread, because deferral is
  /// thread-local (worker threads would bypass the batch queue).
  bool inline_only = false;
  std::vector<PlanStage> stages;
  std::shared_ptr<QueryScratch> scratch;  // null for pure mutations

  /// Non-empty under adaptive selection: the "plan.<candidate>" series the
  /// gateway records this plan's whole-run latency into — the live
  /// evidence the cost model blends against the static priors.
  std::string cost_series;
};

/// Compiles gateway operations into OperationPlans. Stateless apart from
/// its wiring (cloud channel + perf registry + optional cache/cost model);
/// one instance per gateway.
///
/// With a cost model attached, range queries re-plan PER QUERY: the
/// leakage-admissible candidate set (static slot + range_alts + the
/// retrieve-and-post-filter shape) is ranked by predicted cost at the
/// observed cardinality, and the winning plan is emitted. Without one,
/// planning is byte-identical to the static §5.1 behaviour.
class Planner {
 public:
  Planner(net::RpcClient& cloud, PerfRegistry& perf, HotCache* cache = nullptr,
          CostModel* cost_model = nullptr)
      : cloud_(cloud), perf_(perf), cache_(cache), cost_model_(cost_model) {}

  OperationPlan insert(CollectionRuntime& rt, const doc::Document& d) const;
  OperationPlan remove(CollectionRuntime& rt, const DocId& id) const;
  OperationPlan read(CollectionRuntime& rt, const DocId& id) const;
  OperationPlan equality_search(CollectionRuntime& rt, const std::string& field,
                                const doc::Value& value) const;
  OperationPlan boolean_search(CollectionRuntime& rt,
                               const FieldBoolQuery& query) const;
  OperationPlan range_search(CollectionRuntime& rt, const std::string& field,
                             const doc::Value& lo, const doc::Value& hi) const;
  OperationPlan aggregate(CollectionRuntime& rt, const std::string& field,
                          schema::Aggregate agg) const;

  /// Batched candidate retrieval (Retrieval SPI role): ONE doc.mget round
  /// trip for the whole id set; ids whose document has vanished (races
  /// with deletions) are silently skipped. Returns docs in id order.
  std::vector<doc::Document> fetch_documents(const CollectionRuntime& rt,
                                             const std::vector<DocId>& ids) const;

 private:
  /// Holds the document an update plan indexes. Insert plans point at the
  /// caller's document; remove plans fill `owned` in their retrieve stage.
  struct DocHolder {
    const doc::Document* doc = nullptr;
    doc::Document owned;
  };

  /// Appends the "resolve" stage shared by every search plan:
  /// candidates() then one batched doc.mget. Under a sharded backend the
  /// router splits that doc.mget into per-shard sub-calls and merges them
  /// in candidate order, so the plan never sees shard placement.
  void append_resolve_stage(OperationPlan& p, const CollectionRuntime& rt,
                            std::shared_ptr<QueryScratch> scratch,
                            std::function<std::vector<DocId>()> candidates,
                            const char* label) const;

  /// The index fan-out stage shared by insert/remove: one step per
  /// (field, tactic-slot) the plan routes, plus one for the boolean
  /// tactic. Steps re-check field presence at run time (the remove path
  /// does not know the document until its retrieve stage ran).
  PlanStage update_stage(CollectionRuntime& rt, std::shared_ptr<DocHolder> holder,
                         bool is_insert) const;

  net::RpcClient& cloud_;
  PerfRegistry& perf_;
  HotCache* cache_;          // decrypted-document cache (null = off)
  CostModel* cost_model_;    // adaptive range selection (null = static)
};

}  // namespace exec
}  // namespace datablinder::core
