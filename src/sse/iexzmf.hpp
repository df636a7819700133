// IEX-ZMF — boolean SSE with matryoshka-filter local indexes
// (Kamara & Moataz — Eurocrypt 2017), Goh-style Bloom-filter instantiation.
//
// Space/read trade-off versus IEX-2Lev: instead of materialising one
// encrypted list per keyword *pair* (quadratic space), every global index
// entry carries a fixed-size keyed Bloom filter over the document's other
// keywords. A conjunction w1 ∧ w2 ∧ ... is answered by walking w1's global
// entries and testing the query tokens against each entry's filter — the
// server returns only candidates that pass all filters. Bloom false
// positives are possible; DataBlinder's boolean tactic re-verifies
// candidates at the gateway after decryption (the extra reads that make
// ZMF "read-heavier but space-lighter", as the paper's Table 2 contrasts).
//
// Filter privacy: positions are derived from PRF(k_filter, keyword) mixed
// with a random per-filter salt, so filters for the same keyword set are
// uncorrelated and membership is only testable with a token.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"
#include "sse/index_common.hpp"

namespace datablinder::sse {

struct ZmfFilterParams {
  std::size_t filter_bits = 256;  // m
  std::size_t num_hashes = 4;     // h
};

struct ZmfUpdateToken {
  Bytes address;   // global index address for (w, counter)
  Bytes value;     // padded (op, id)
  Bytes salt;      // per-entry filter salt (public)
  Bytes filter;    // Bloom filter bits over the doc's keyword set
};

/// Conjunction token: address list for the first keyword's global entries,
/// plus one membership token per remaining keyword.
struct ZmfConjToken {
  std::vector<Bytes> addresses;
  std::vector<Bytes> keyword_tokens;
};

class IexZmfServer {
 public:
  explicit IexZmfServer(ZmfFilterParams params = {}) : params_(params) {}

  void apply_update(const ZmfUpdateToken& token);

  /// Returns, for each address (positionally aligned), the stored value if
  /// every keyword token passes that entry's filter — empty placeholder
  /// otherwise.
  std::vector<Bytes> search(const ZmfConjToken& token) const;

  std::size_t storage_bytes() const noexcept {
    return values_.storage_bytes() + filters_.storage_bytes();
  }

  /// Order-insensitive content digest (replica convergence checks).
  std::uint64_t fingerprint() const {
    return values_.fingerprint() * 3 + filters_.fingerprint();
  }

 private:
  ZmfFilterParams params_;
  EncryptedDict values_;
  EncryptedDict filters_;  // address -> salt || filter bits
};

class IexZmfClient {
 public:
  explicit IexZmfClient(BytesView key, ZmfFilterParams params = {});
  explicit IexZmfClient(const SecretBytes& key, ZmfFilterParams params = {});

  std::vector<ZmfUpdateToken> update(UpdateOp op, const std::vector<std::string>& keywords,
                                     const DocId& id);

  ZmfConjToken conj_token(const std::vector<std::string>& conj) const;

  /// Decrypts the (candidate) values for `conj`; the result may contain
  /// Bloom false positives — callers re-verify after document decryption.
  std::vector<DocId> resolve_conj(const std::vector<std::string>& conj,
                                  const std::vector<Bytes>& values) const;

  Bytes export_state() const { return counters_.serialize(); }
  void import_state(BytesView b) { counters_ = KeywordCounters::deserialize(b); }

  const ZmfFilterParams& params() const noexcept { return params_; }

 private:
  Bytes keyword_token(const std::string& w) const;

  crypto::PrfKey key_;  // hoisted HMAC schedule
  ZmfFilterParams params_;
  KeywordCounters counters_;
};

/// Bit positions a keyword token hashes to within a salted filter.
std::vector<std::size_t> zmf_positions(const crypto::PrfKey& keyword_token, BytesView salt,
                                       const ZmfFilterParams& params);

}  // namespace datablinder::sse
