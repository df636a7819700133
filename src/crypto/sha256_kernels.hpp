// The SHA-256 compression function behind one table, in two
// implementations.
//
// The portable kernel (sha256.cpp, the FIPS 180-4 round loop) is the
// reference: it runs anywhere and defines the expected bytes. The hardware
// kernel uses the SHA extensions (SHA256RNDS2/SHA256MSG1/SHA256MSG2) and
// must produce the identical state for every input (crypto_test's
// differential suite checks this). `hardware_sha256_kernels()` returns
// it after a cached CPUID check.
//
// `active_sha256_kernels()`, the table every Sha256 runs on by default,
// is the portable kernel, with no setting to change it. perfbench scales
// each op's time by a host-speed probe made of 1024-bit Montgomery
// multiplications, and SHA-NI work barely slows when the host does: with
// the hardware kernel active, fhir-analytics ops_s swung with the host's
// load by ~11% of its median (interquartile range over 8 seeds) against
// ~1% on the portable kernel, too wide for the benchmark to compare
// against a parent. The hardware kernel becomes the active one together
// with a probe that covers it (ROADMAP D(b)).
#pragma once

#include <cstddef>
#include <cstdint>

namespace datablinder::crypto {

/// FIPS 180-4 §4.2.2 round constants, shared by both kernels.
inline constexpr std::uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

struct Sha256Kernels {
  /// Absorbs `n` consecutive 64-byte blocks into the eight-word chaining
  /// state (FIPS 180-4 §6.2.2). `blocks` needs no alignment.
  void (*compress)(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n);
};

/// The reference kernel; always available.
const Sha256Kernels& portable_sha256_kernels();

/// The SHA-NI kernel, or nullptr when the CPU lacks SHA, SSE4.1 or SSSE3.
const Sha256Kernels* hardware_sha256_kernels();

/// The table Sha256 uses by default: the portable kernel (see above).
const Sha256Kernels& active_sha256_kernels();

namespace portable {
// Defined in sha256.cpp beside the rest of the hash.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n);
}  // namespace portable

}  // namespace datablinder::crypto
