// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// The workhorse PRF of the library: SSE token derivation, DET synthetic
// IVs and KMS key derivation are all built on it.
#pragma once

#include <initializer_list>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/sha256.hpp"

namespace datablinder::crypto {

class HmacSha256 {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;
  using Tag = Sha256::Digest;

  /// Keys of any length are accepted (hashed down if > block size). The
  /// key schedule runs once, here: the SHA-256 midstates after key ^ ipad
  /// and key ^ opad are kept, so every MAC under this object (and every
  /// copy of it) skips the key hashing and two compressions.
  explicit HmacSha256(BytesView key);
  explicit HmacSha256(const SecretBytes& key);

  HmacSha256(const HmacSha256&) = default;
  HmacSha256& operator=(const HmacSha256&) = default;
  /// The midstates are key-derived: wipe them on destruction.
  ~HmacSha256();

  /// MAC over the concatenation of `parts`, into a fixed-size tag (no
  /// heap allocation).
  Tag tag(std::initializer_list<BytesView> parts) const;

  /// One-shot MAC.
  static Bytes mac(BytesView key, BytesView data);

  /// Constant-time verification of a full-length tag.
  static bool verify(BytesView key, BytesView data, BytesView tag);

 private:
  Sha256 inner_mid_;  // state after absorbing key ^ ipad
  Sha256 outer_mid_;  // state after absorbing key ^ opad
};

}  // namespace datablinder::crypto
