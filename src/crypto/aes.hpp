// AES-128/192/256 block cipher (FIPS 197), forward direction only: every
// mode built on it (CTR, GCM, SIV) needs only encryption.
//
// The key schedule is expanded here; the block and CTR work runs on the
// kernels chosen at construction (aes_kernels.hpp): AES-NI when the CPU has
// it, the portable S-box implementation otherwise.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/aes_kernels.hpp"

namespace datablinder::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes; throws Error(kInvalidArgument) otherwise.
  explicit Aes(BytesView key);
  explicit Aes(const SecretBytes& key);
  /// Runs on the given kernels instead of `active_aes_kernels()` — how tests
  /// pin the portable reference.
  Aes(BytesView key, const AesKernels& kernels);

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;
  /// The expanded key schedule is secret-derived: wipe it on destruction.
  ~Aes() { secure_wipe(round_keys_); }

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// XORs the CTR keystream starting at `counter0` into `data`.
  void ctr_xcrypt(const std::array<std::uint8_t, kBlockSize>& counter0,
                  std::span<std::uint8_t> data) const;

  const AesKernels& kernels() const noexcept { return *kernels_; }
  std::size_t rounds() const noexcept { return rounds_; }

 private:
  void expand_key(BytesView key);

  // Round keys: (rounds_+1) * 16 bytes.
  std::array<std::uint8_t, 15 * kBlockSize> round_keys_{};
  std::size_t rounds_ = 0;
  const AesKernels* kernels_;
};

}  // namespace datablinder::crypto
