// IEX-2Lev — boolean (conjunctive/disjunctive) SSE with worst-case
// sub-linear search (Kamara & Moataz — Eurocrypt 2017), dynamic variant in
// the style of the Clusion library the paper integrated.
//
// Two index levels:
//  * a *global* index: keyword w -> encrypted id list (per-keyword counter
//    addressing, forward-private in the Mitra style), and
//  * a *local* cross-keyword index: pair (w, v) -> encrypted list of ids
//    containing both w and v.
// A conjunction w1 ∧ w2 ∧ ... is answered from global(w1) and the local
// entries (w1, wj). The server only ever sees PRF labels and padded
// values; the intersection happens at the gateway ("BoolResolution" in SPI
// Table 1), and so does the union of a disjunction's conjunctions.
//
// Paper Table 2: protection Class 3, "Predicates" leakage, challenge =
// storage implementation complexity (the pair-expanded local index).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"
#include "sse/index_common.hpp"

namespace datablinder::sse {

struct IexUpdateToken {
  Bytes address;
  Bytes value;
};

/// Search token for ONE conjunction: the address lists the server must
/// fetch. `lists[0]` is the global list of the first keyword; subsequent
/// entries are local (pair) lists.
struct IexConjToken {
  std::vector<std::vector<Bytes>> lists;
};

class Iex2LevServer {
 public:
  void apply_update(const IexUpdateToken& token);

  /// Fetches each address list; inner vectors keep address order so the
  /// client can realign PRF pads.
  std::vector<std::vector<Bytes>> search(const IexConjToken& token) const;

  const EncryptedDict& dict() const noexcept { return dict_; }

 private:
  EncryptedDict dict_;
};

class Iex2LevClient {
 public:
  explicit Iex2LevClient(BytesView key);
  explicit Iex2LevClient(const SecretBytes& key);

  /// Indexes `id` under every keyword and every ordered keyword pair.
  std::vector<IexUpdateToken> update(UpdateOp op, const std::vector<std::string>& keywords,
                                     const DocId& id);

  /// Token for one conjunction (must be non-empty).
  IexConjToken conj_token(const std::vector<std::string>& conj) const;

  /// Decrypts the server response for `conj` and intersects the lists.
  std::vector<DocId> resolve_conj(const std::vector<std::string>& conj,
                                  const std::vector<std::vector<Bytes>>& lists) const;

  Bytes export_state() const;
  void import_state(BytesView b);

 private:
  // Returns one update token for a single (scope-key, counter) stream.
  IexUpdateToken make_token(UpdateOp op, const std::string& stream, std::uint64_t count,
                            const DocId& id) const;

  static std::string global_stream(const std::string& w);
  static std::string pair_stream(const std::string& w, const std::string& v);

  crypto::PrfKey key_;  // hoisted HMAC schedule (pair expansion is PRF-heavy)
  KeywordCounters counters_;  // counts per stream (global and pair streams)
};

}  // namespace datablinder::sse
