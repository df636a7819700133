// CollectionRuntime — the instantiated per-collection execution state of
// the middleware core (§4.2, Fig. 4): the resolved tactic plan, the
// gateway-side tactic instances the registry created for it, the
// whole-document AEAD cipher, and the locks the gateway takes around
// tactic invocations.
//
// Locking model: one reader/writer lock PER TACTIC INSTANCE (not per
// collection). Index mutations (on_insert/on_delete advance SSE client
// state) take the tactic's lock exclusively, unless the tactic declares
// `updates_read_fixed_keys` (its updates read only setup-time keys: DET,
// RND, Paillier); queries take it shared.
// Writes to distinct fields — and the distinct tactic slots of one field —
// therefore index concurrently, while two updates of the same tactic
// still serialize. No code path ever holds two tactic locks at once, so
// the model is deadlock-free by construction.
#pragma once

#include <atomic>
#include <cstdint>
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

namespace datablinder::core::exec {

/// A tactic instance plus its reader/writer lock. Stored in node-stable
/// maps so an operation's steps can hold pointers to slots.
struct TacticSlot {
  std::unique_ptr<FieldTactic> tactic;
  mutable std::shared_mutex mutex;
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
};

}  // namespace datablinder::core::exec
