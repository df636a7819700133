// SHA-256 (FIPS 180-4).
//
// Incremental hashing interface plus a one-shot helper. Used as the base
// primitive for HMAC, HKDF and SSE keyword hashing throughout the library.
// The compression runs on the kernel table chosen at construction
// (sha256_kernels.hpp): by default the portable one; tests and benches
// also pass the SHA-NI table where the CPU has it.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

#include "common/bytes.hpp"
#include "crypto/sha256_kernels.hpp"

namespace datablinder::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// Runs on `kernels` — how tests pin the portable reference.
  explicit Sha256(const Sha256Kernels& kernels = active_sha256_kernels());

  /// Absorbs more input; all whole blocks go to one kernel call.
  void update(BytesView data);

  /// Finalizes into a fixed-size digest (no heap allocation). The object
  /// must be reset() before reuse.
  Digest finalize();

  /// The digest of everything absorbed so far followed by `parts`, leaving
  /// this object unchanged, so one midstate can be finished many times.
  /// When the rest fits in one final block it is built on the stack and
  /// compressed once, with no copy of this object.
  Digest digest_with(std::initializer_list<BytesView> parts) const;

  /// Re-initializes the state for a fresh computation.
  void reset();

  /// One-shot convenience.
  static Digest digest(BytesView data,
                       const Sha256Kernels& kernels = active_sha256_kernels());

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_;
  std::uint64_t total_len_;
  const Sha256Kernels* kernels_;
};

}  // namespace datablinder::crypto
