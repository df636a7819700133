// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the RND tactic's cipher and the general-purpose AEAD for
// document payloads: probabilistic, tamper-evident, with optional
// associated data (used to bind ciphertexts to document ids).
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/aes.hpp"

namespace datablinder::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  /// Key must be 16, 24 or 32 bytes.
  explicit AesGcm(BytesView key);
  explicit AesGcm(const SecretBytes& key);
  /// Runs on the given kernels (see Aes) — how tests pin the portable path.
  AesGcm(BytesView key, const AesKernels& kernels);

  AesGcm(const AesGcm&) = default;
  AesGcm& operator=(const AesGcm&) = default;
  /// The GHASH subkey is AES_K(0): key-derived, wiped on destruction.
  ~AesGcm() { secure_wipe(h_); }

  /// Encrypts with a caller-provided 12-byte nonce. Output layout is
  /// ciphertext || tag. Nonces MUST be unique per key.
  Bytes seal(BytesView nonce, BytesView plaintext, BytesView aad = {}) const;

  /// Encrypts with a fresh random nonce; output is nonce || ciphertext || tag.
  Bytes seal_random_nonce(BytesView plaintext, BytesView aad = {}) const;

  /// Decrypts ciphertext || tag. Returns nullopt on authentication failure.
  std::optional<Bytes> open(BytesView nonce, BytesView sealed, BytesView aad = {}) const;

  /// Decrypts nonce || ciphertext || tag produced by seal_random_nonce.
  std::optional<Bytes> open_with_nonce(BytesView sealed, BytesView aad = {}) const;

 private:
  /// Tag = GHASH_H(aad, ciphertext) XOR AES_K(J0), into `tag`.
  void compute_tag(const std::array<std::uint8_t, 16>& j0, BytesView aad,
                   BytesView ciphertext, std::uint8_t tag[kTagSize]) const;

  Aes aes_;
  // GHASH subkey H = AES_K(0^128), in SP 800-38D byte order.
  std::array<std::uint8_t, 16> h_{};
};

}  // namespace datablinder::crypto
