// The three AES kernels every mode is built from — one block, a CTR
// keystream, and GHASH — in two implementations behind one table.
//
// The portable kernels (byte-wise S-box AES, bitwise GHASH) are the
// reference: they run anywhere and define the expected bytes. The hardware
// kernels use AES-NI and PCLMULQDQ and must produce identical output for
// every key size, length and AAD (crypto_test's differential suite checks
// this). `active_aes_kernels()` picks the hardware table once, from a
// cached CPUID check; there is no setting to override it. Tests reach the
// portable kernels by passing `portable_aes_kernels()` to Aes/AesGcm.
//
// Round keys are read straight from the caller's schedule (Aes::round_keys_);
// no kernel keeps a copy of key material beyond its own registers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace datablinder::crypto {

struct AesKernels {
  /// Encrypts one 16-byte block in place under the (rounds+1)*16-byte
  /// FIPS-197 key schedule `round_keys`.
  void (*encrypt_block)(const std::uint8_t* round_keys, std::size_t rounds,
                        std::uint8_t block[16]);
  /// XORs the CTR keystream into data[0, len). `counter0` is the first
  /// counter block; later blocks increment it big-endian across all 128
  /// bits (SP 800-38A).
  void (*ctr_xcrypt)(const std::uint8_t* round_keys, std::size_t rounds,
                     const std::uint8_t counter0[16], std::uint8_t* data,
                     std::size_t len);
  /// GHASH absorb (SP 800-38D): for each 16-byte block of data[0, len),
  /// zero-padding the last, y = (y XOR block) * h in GF(2^128).
  void (*ghash)(const std::uint8_t h[16], std::uint8_t y[16], const std::uint8_t* data,
                std::size_t len);
};

/// The reference kernels; always available.
const AesKernels& portable_aes_kernels();

/// The AES-NI + PCLMULQDQ kernels, or nullptr when the CPU lacks either.
const AesKernels* hardware_aes_kernels();

/// Hardware when available, else portable. Decided once per process.
const AesKernels& active_aes_kernels();

namespace portable {
// Defined beside the mode each belongs to (aes.cpp, ctr.cpp, gcm.cpp).
void aes_encrypt_block(const std::uint8_t* round_keys, std::size_t rounds,
                       std::uint8_t block[16]);
void aes_ctr_xcrypt(const std::uint8_t* round_keys, std::size_t rounds,
                    const std::uint8_t counter0[16], std::uint8_t* data, std::size_t len);
void ghash(const std::uint8_t h[16], std::uint8_t y[16], const std::uint8_t* data,
           std::size_t len);
}  // namespace portable

}  // namespace datablinder::crypto
