// Keyed pseudorandom function helpers layered over HMAC-SHA256.
//
// SSE schemes and ORE are specified in terms of abstract PRFs/PRPs; these
// helpers give them concrete, fixed-width instantiations.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/hmac.hpp"

namespace datablinder::crypto {

/// A PRF key with the HMAC key schedule hoisted: the SHA-256 midstates for
/// the ipad/opad blocks are computed once at construction, so every MAC
/// afterwards skips the key hashing/padding and two compression rounds.
/// SSE schemes evaluate the PRF per keyword-counter pair and OPE/ORE per
/// tree level or block under one long-lived key, which makes the per-call
/// schedule the dominant fixed cost.
///
/// Bit-for-bit HMAC-SHA256 (pinned by known-answer and differential tests);
/// copyable so scheme clients can hold it by value.
class PrfKey {
 public:
  using Tag = HmacSha256::Tag;

  explicit PrfKey(BytesView key) : mac_(key) {}
  explicit PrfKey(const SecretBytes& key) : mac_(key) {}

  /// PRF(key, input) -> 32 bytes (HMAC-SHA256), without a heap allocation.
  Tag tag(BytesView input) const;
  /// PRF(key, label || 0x00 || input): domain separation by label.
  Tag tag_labeled(std::string_view label, BytesView input) const;
  /// XORs prf_n(input, data.size()) into `data`; allocation-free up to 32
  /// bytes, which covers every document-id payload.
  void xor_pad(BytesView input, std::span<std::uint8_t> data) const;

  /// The same values as Bytes.
  Bytes prf(BytesView input) const;
  Bytes prf_labeled(std::string_view label, BytesView input) const;
  /// Truncated/expanded to exactly `n` bytes (HKDF-expand when n > 32).
  Bytes prf_n(BytesView input, std::size_t n) const;
  /// First 8 bytes, big-endian.
  std::uint64_t prf_u64(BytesView input) const;
  /// Small-domain PRF: maps input to a value in [0, bound). Bias is
  /// negligible for bound << 2^64 (all library uses are small bounds).
  std::uint64_t prf_mod(BytesView input, std::uint64_t bound) const;

 private:
  HmacSha256 mac_;  // the hoisted schedule; wipes itself on destruction
};

/// prf_mod under a key used exactly once, such as ORE's per-comparison pad
/// key: hoisting its schedule would cost as much as it saves.
std::uint64_t prf_mod(BytesView key, BytesView input, std::uint64_t bound);

}  // namespace datablinder::crypto
