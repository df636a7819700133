// CollectionRuntime — the instantiated per-collection execution state of
// the middleware core (§4.2, Fig. 4): the resolved tactic plan, the
// gateway-side tactic instances the registry created for it, the
// whole-document AEAD cipher, and the locks the gateway takes around
// tactic invocations.
//
// The pipeline pieces that need no middleware are defined here once: the
// Gateway wraps them in its timers, and the hand-wired Figure 5 baseline
// (workload::ScenarioB) calls them bare, so the two cannot drift apart.
//
// Locking model: one reader/writer lock PER TACTIC INSTANCE (not per
// collection), guarding that tactic's gateway-side state only. A write part
// (on_delete then on_insert; both may advance SSE client state) holds its
// tactic's lock exclusively, unless the tactic declares
// `updates_read_fixed_keys` (its updates read only setup-time keys: DET,
// RND, Paillier); queries take it shared. Writes to distinct fields — and
// the distinct tactic slots of one field — therefore run concurrently,
// while two writes through the same tactic still serialize. No code path
// ever holds two tactic locks at once, so the model is deadlock-free by
// construction. The cloud guards its own index state (CloudNode): a
// captured write ships after its tactic locks are released, so the cloud
// cannot lean on them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/registry.hpp"
#include "crypto/gcm.hpp"
#include "doc/value.hpp"
#include "net/rpc.hpp"

namespace datablinder::core::exec {

/// Width of the pool a write's index steps fan out on: small, as a write
/// has single-digit steps and the calling thread takes part too.
std::size_t default_workers();

/// A tactic instance plus its reader/writer lock. Stored in node-stable
/// maps so an operation's steps can hold pointers to slots.
struct TacticSlot {
  std::unique_ptr<FieldTactic> tactic;
  mutable std::shared_mutex mutex;
};

/// One tactic slot's share of a write: removing the old value, indexing the
/// new one. An update has both for every field, changed or not, so the
/// cloud learns nothing about which fields it changed.
struct WritePart {
  const TacticDescriptor* descriptor;
  std::shared_mutex* mutex;        // the slot's lock
  std::function<void()> on_delete;  // of the old value; empty for an insert
  std::function<void()> on_insert;  // of the new value; empty for a removal

  /// Takes the lock once, shared iff the tactic declares
  /// `updates_read_fixed_keys` (a Paillier encryption then queues no writer
  /// or query), and runs both calls, each timed into `perf` if not null.
  void run(PerfRegistry* perf) const;
};

struct CollectionRuntime {
  schema::Schema schema;
  CollectionPlan plan;
  std::unique_ptr<crypto::AesGcm> doc_cipher;  // whole-document AEAD

  std::unique_ptr<BooleanTactic> boolean;
  mutable std::shared_mutex boolean_mutex;

  // field -> slot, one map per operation family (eq / range / agg).
  std::map<std::string, TacticSlot> eq;
  std::map<std::string, TacticSlot> range;
  std::map<std::string, TacticSlot> agg;

  /// Alternative range candidates (field -> tactic name -> slot), present
  /// only under adaptive selection: every admissible candidate keeps its
  /// index current (writes fan out to them too) so the cost model
  /// can switch the query path without a rebuild.
  std::map<std::string, std::map<std::string, TacticSlot>> range_alts;

  /// Observed collection cardinality — the n the cost model evaluates
  /// priors at. Maintained by the gateway on insert/remove; approximate
  /// under crash recovery, which only flattens the predictions.
  std::atomic<std::uint64_t> doc_count{0};

  /// Guards the live annotation fields of `plan` (FieldPlan range_last_*):
  /// adaptive range selection writes them per query while to_table() readers
  /// may render concurrently.
  mutable std::mutex plan_mutex;

  /// SecureEnc SPI role: the whole document is AEAD-protected and bound to
  /// its id, so the cloud can neither read nor swap blobs between ids.
  Bytes seal_document(const doc::Document& d) const;

  /// Decrypts + authenticates one blob. Throws kCryptoFailure.
  doc::Document open_document(const DocId& id, BytesView blob) const;

  /// Cross-field keyword set of the document's boolean-member fields.
  std::vector<std::string> boolean_keywords(const doc::Document& d) const;

  /// The parts of a write replacing `before` with `after` (an insert has no
  /// `before`, a removal no `after`): one per tactic slot of every field
  /// either carries, adaptive alternates included, so every index that saw
  /// an insert sees its removal and writers of disjoint fields never
  /// contend. Costliest prior first (WorkerPool::run_all runs part 0 on the
  /// calling thread at once); the boolean tactic's part, if any, last.
  std::vector<WritePart> write_parts(const doc::Document* before,
                                     const doc::Document* after);

  /// The store step of an insert: one doc.put of the sealed document.
  void store(net::RpcClient& cloud, const doc::Document& d) const;

  /// The resolve step of every search: ONE doc.mget round trip for all
  /// candidates. Returns the documents in candidate order; ids whose
  /// document vanished (races with deletions) are skipped.
  std::vector<doc::Document> resolve(net::RpcClient& cloud,
                                     const std::vector<DocId>& ids) const;
};

/// The exact post-filter of one equality term: `d` carries `field` and its
/// value equals `value`. Values of incomparable types never match.
bool term_matches(const doc::Document& d, const std::string& field,
                  const doc::Value& value);

}  // namespace datablinder::core::exec
