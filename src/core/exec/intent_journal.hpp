// IntentJournal — crash-consistent write intents in the gateway's local
// semi-persistent KvStore (the Redis role of §4).
//
// A write fans out over several cloud mutations (its doc.put or doc.del,
// plus per routed tactic the old value's removal and/or the new value's
// insert). A WAN fault or gateway crash between them would leave some
// field indexes updated and others not. The journal
// closes that window with a write-ahead intent:
//
//   1. The gateway runs the write in RPC-capture mode (RpcClient::capture):
//      every cloud mutation is computed — advancing gateway-side tactic
//      state — but queued instead of sent.
//   2. The exact wire bytes of the whole queue are recorded here, durably
//      (KvStore AOF + sync), BEFORE the first cloud mutation ships.
//   3. The queue ships as one "rpc.batch" round trip.
//   4. The intent is marked complete.
//
// A fault between 3 and 4 (or a crash any time after 2) leaves a pending
// intent whose recorded ciphertexts are resumed by BYTE-IDENTICAL replay —
// never by re-running tactics. Replay is idempotent because every built-in
// update handler is a keyed overwrite or removal, and it preserves the
// leakage profile because the adversary only ever sees duplicates of
// ciphertexts it already held, never a second fresh encryption of the same
// plaintext. A crash between 1 and 2 loses only the local tactic-state
// advance (e.g. a skipped Mitra counter slot, a miss searches skip);
// nothing reached the cloud, so no partial visible state exists.
//
// Record layout (hash "intent/pending", field = token):
//   be32 version | str collection | be32 n_ids | ids... |
//   the captured requests as a batch (net::BatchWriter in net/message:
//   be32 n_rpcs | (be32 len | serialized net::Request)...)
// where str = be32 length + bytes. The requests are rows of the
// cloud-method table (net/methods) that it marks deferrable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/rpc.hpp"
#include "store/kvstore.hpp"

namespace datablinder::core::exec {

class IntentJournal {
 public:
  /// Both must outlive the journal.
  IntentJournal(store::KvStore& store, net::RpcClient& cloud)
      : store_(store), cloud_(cloud) {}

  struct Intent {
    std::string token;  // journal hash field
    std::string collection;
    std::vector<std::string> ids;            // document ids the intent covers
    std::vector<net::Request> rpcs;          // exact captured cloud mutations
  };

  /// Durably records a pending intent (flushes the AOF) and returns its
  /// token. Must be called before any of `rpcs` is sent.
  std::string begin(const std::string& collection,
                    const std::vector<std::string>& ids,
                    const std::vector<net::Request>& rpcs);

  /// Marks an intent complete (removes it from the pending set).
  void complete(const std::string& token);

  /// All pending (crash-interrupted) intents, oldest first.
  std::vector<Intent> pending() const;
  std::size_t pending_count() const;

  /// The pending intent covering (collection, id), if any: a write of that
  /// id resumes it first.
  std::optional<Intent> find(const std::string& collection,
                             const std::string& id) const;

  /// Replays one intent's recorded RPCs byte-identically as one batch and
  /// marks it complete. On failure the intent stays pending and the error
  /// propagates (a later resume picks it up).
  void resume(const Intent& intent);

  /// Replays every pending intent; returns how many completed. Stops at
  /// the first transport failure (the rest stay pending).
  std::size_t resume_all();

 private:
  store::KvStore& store_;
  net::RpcClient& cloud_;
};

}  // namespace datablinder::core::exec
