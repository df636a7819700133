// OPE — order-preserving encryption (Boldyreva et al. style).
//
// Stateless, deterministic keyed monotone injection from 64-bit plaintexts
// into a 128-bit ciphertext space. Instead of the original hypergeometric
// sampling we descend a binary tree over the plaintext bits, choosing each
// split point pseudorandomly (PRF-keyed on the path) while keeping both
// subintervals large enough to host every remaining leaf. This preserves
// the construction's essential properties: order preservation, determinism,
// statelessness, and "order" leakage (protection Class 5) — the properties
// the DataBlinder range-query tactic and its evaluation depend on.
#pragma once

#include <compare>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/prf.hpp"

namespace datablinder::ppe {

/// 128-bit ciphertext with numeric ordering.
struct Ope128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  auto operator<=>(const Ope128&) const = default;

  /// 16-byte big-endian encoding (sorts identically to numeric order).
  Bytes to_bytes() const;
  static Ope128 from_bytes(BytesView b);
};

class OpeCipher {
 public:
  /// Key length arbitrary (hashed); `context` domain-separates fields.
  OpeCipher(BytesView key, std::string_view context);
  OpeCipher(const SecretBytes& key, std::string_view context);

  /// Order-preserving: x < y implies encrypt(x) < encrypt(y).
  Ope128 encrypt(std::uint64_t plaintext) const;

  /// Recovers the plaintext by binary search over the encryption function
  /// (OPE is a monotone injection, so inversion needs no separate key
  /// material). O(64) encryptions.
  std::uint64_t decrypt(const Ope128& ciphertext) const;

 private:
  crypto::PrfKey key_;  // hoisted HMAC schedule: encrypt() runs 64 PRFs under it
};

}  // namespace datablinder::ppe
