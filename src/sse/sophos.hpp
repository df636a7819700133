// Sophos (Σoφoς) — forward-private SSE from a trapdoor permutation
// (Bost — CCS 2016).
//
// Search tokens for keyword w form a chain ST_0 <- ST_1 <- ... where the
// client steps *backwards* with the RSA private key (ST_{c+1} = π^{-1}(ST_c))
// and the server replays *forwards* with the public key (ST_{i-1} = π(ST_i)).
// An update inserts at UT = H1(K_w, ST_new); since deriving ST_new needs the
// trapdoor, the server cannot connect new updates to previously searched
// keywords — forward privacy. The scheme is append-only (no deletions),
// which is why Table 2 lists fewer SPI interfaces for it than for Mitra,
// and its challenge column says "key management" (the RSA trapdoor).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"
#include "sse/index_common.hpp"

namespace datablinder::sse {

using bigint::BigInt;
using bigint::Montgomery;

/// RSA trapdoor-permutation key material.
struct SophosPublicParams {
  BigInt n;       // RSA modulus
  BigInt e;       // public exponent (forward direction, server side)

  /// Cached Montgomery context for n — the server replays one modular
  /// exponentiation per chain step, so search cost is dominated by it.
  /// Never serialized; rebuilt on demand.
  std::shared_ptr<const Montgomery> mont_n;

  /// Builds the cached context. Idempotent.
  void init_context();

  std::size_t element_len() const { return (n.bit_length() + 7) / 8; }
};

struct SophosUpdateToken {
  Bytes ut;      // dictionary address H1(K_w, ST)
  Bytes value;   // id XOR H2(K_w, ST)
};

struct SophosSearchToken {
  Bytes kw_token;     // K_w
  Bytes st_current;   // ST_c serialized (element of Z_n)
  std::uint64_t count = 0;
};

class SophosServer {
 public:
  explicit SophosServer(SophosPublicParams params) : params_(std::move(params)) {}

  void apply_update(const SophosUpdateToken& token);

  /// Walks the token chain forward with the public permutation, returning
  /// the recovered document ids (newest first).
  std::vector<DocId> search(const SophosSearchToken& token) const;

  const EncryptedDict& dict() const noexcept { return dict_; }
  const SophosPublicParams& params() const noexcept { return params_; }

 private:
  SophosPublicParams params_;
  EncryptedDict dict_;
};

class SophosClient {
 public:
  /// Generates fresh RSA trapdoor material (modulus_bits) and a PRF key.
  SophosClient(BytesView prf_key, std::size_t modulus_bits);
  SophosClient(const SecretBytes& prf_key, std::size_t modulus_bits);

  SophosPublicParams public_params() const;

  /// Append-only update (Sophos has no deletion protocol).
  SophosUpdateToken update(const std::string& keyword, const DocId& id);

  /// Returns nullopt if the keyword has never been updated.
  std::optional<SophosSearchToken> search_token(const std::string& keyword) const;

  std::size_t distinct_keywords() const noexcept { return state_.size(); }

  /// The trapdoor step pi^{-1}(st) = st^d mod n, by CRT: half-width
  /// exponentiations mod p and q with d reduced mod p-1 and q-1,
  /// recombined with q^{-1} mod p.
  BigInt step_back(const BigInt& st) const;

  /// Reference step: st^d mod n on the full modulus — the differential
  /// baseline for step_back.
  BigInt step_back_generic(const BigInt& st) const;

 private:
  struct KeywordState {
    BigInt st;             // current (newest) token state
    std::uint64_t count = 0;
  };

  Bytes kw_token(const std::string& keyword) const;

  crypto::PrfKey prf_key_;  // hoisted HMAC schedule for kw-token derivation
  BigInt n_, e_, d_;  // RSA trapdoor permutation
  std::shared_ptr<const Montgomery> mont_n_;  // context for n, shared with the server
  // CRT form of the trapdoor: q, d mod (p-1), d mod (q-1), q^{-1} mod p,
  // and contexts for p and q.
  BigInt q_, d_p_, d_q_, q_inv_p_;
  std::shared_ptr<const Montgomery> mont_p_, mont_q_;
  std::unordered_map<std::string, KeywordState> state_;
};

/// H1/H2 are shared between client and server (token-keyed PRFs). They
/// take the keyword token as a PrfKey so a search walk hoists its HMAC key
/// schedule once and reuses it across every chain step.
Bytes sophos_h1(const crypto::PrfKey& kw, BytesView st_bytes);
Bytes sophos_h2(const crypto::PrfKey& kw, BytesView st_bytes, std::size_t len);

}  // namespace datablinder::sse
