// Mitra — forward- and backward-private dynamic SSE
// (Chamani, Papadopoulos, Papamanthou, Jalili — CCS 2018).
//
// The client keeps a per-keyword update counter; each update inserts one
// dictionary entry at address PRF(k, w || c || 0) holding (id, op) XOR-padded
// with PRF(k, w || c || 1). Searching keyword w, the client derives all c_w
// addresses and sends them; the server returns the stored values and learns
// nothing that links them to future updates (forward privacy). Deletions
// are lazy: the client cancels (id, del) against (id, add) when resolving.
//
// Paper Table 2: protection Class 2, "Identifiers" leakage, challenge =
// local storage (the counter map lives at the gateway).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"
#include "sse/index_common.hpp"

namespace datablinder::sse {

enum class MitraOp : std::uint8_t { kAdd = 0, kDelete = 1 };

/// One prepared dictionary write (sent to the server verbatim).
struct MitraUpdateToken {
  Bytes address;
  Bytes value;
};

/// Search request: the full address list for keyword w.
struct MitraSearchToken {
  std::vector<Bytes> addresses;
};

/// Server side: a plain encrypted dictionary.
class MitraServer {
 public:
  void apply_update(const MitraUpdateToken& token);

  /// Returns one value per address, in address order: the stored value, or
  /// an empty one for a miss (an update still in flight, or lost), so the
  /// client can still tell which count each value belongs to.
  std::vector<Bytes> search(const MitraSearchToken& token) const;

  const EncryptedDict& dict() const noexcept { return dict_; }

 private:
  EncryptedDict dict_;
};

/// Decrypts the values a search returned for counts 1..values.size() of
/// `keyword` and folds add/delete entries into the live id set, in first-add
/// order; a delete cancels every earlier add of its id. An empty value is a
/// miss and is skipped, so it shifts no other entry. Shared by Mitra and
/// Mitra-SL, whose entries differ only in where the counter lives.
std::vector<DocId> mitra_resolve(const crypto::PrfKey& key, const std::string& keyword,
                                 const std::vector<Bytes>& values);

/// Client side: key material + keyword counters.
class MitraClient {
 public:
  explicit MitraClient(BytesView key);
  explicit MitraClient(const SecretBytes& key);

  MitraUpdateToken update(MitraOp op, const std::string& keyword, const DocId& id);

  MitraSearchToken search_token(const std::string& keyword) const;

  /// Decrypts server results and resolves add/delete pairs into the live
  /// id set for the searched keyword (see mitra_resolve).
  std::vector<DocId> resolve(const std::string& keyword,
                             const std::vector<Bytes>& values) const;

  /// Client-state persistence (gateway-local storage).
  Bytes export_state() const { return counters_.serialize(); }
  void import_state(BytesView b) { counters_ = KeywordCounters::deserialize(b); }

  /// Incremental persistence hooks: current count for one keyword, and
  /// restoration of a persisted count.
  std::uint64_t counter(const std::string& keyword) const { return counters_.get(keyword); }
  void restore_counter(const std::string& keyword, std::uint64_t count) {
    counters_.set(keyword, count);
  }

  std::size_t distinct_keywords() const noexcept { return counters_.distinct_keywords(); }

 private:
  Bytes address_for(const std::string& keyword, std::uint64_t count) const;

  crypto::PrfKey key_;  // hoisted HMAC schedule — every op is PRF-bound
  KeywordCounters counters_;
};

}  // namespace datablinder::sse
