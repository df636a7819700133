// The Montgomery multiply every modular exponentiation is built from, in
// two implementations behind one table (the shape of crypto::AesKernels).
//
// The portable kernel is the reference: word-by-word CIOS over
// `unsigned __int128` (Koç, Acar & Kaliski 1996). It runs anywhere and
// defines the expected limbs. The hardware kernel uses BMI2 `mulx` with two
// independent carry chains on ADX `adcx`/`adox`, and must produce identical
// output for every limb count and operand (montgomery_test's differential
// suite checks this). It is two parts:
//   * a row primitive, t[0..n) += a[0..n) * b, returning the carry limb;
//   * a REDC in GMP's redc_1 shape: each reduction row's carry is parked in
//     the limb that row just zeroed, the parked carries are added to the
//     upper half once, and the final subtraction is selected by a mask.
// At 8 limbs, the hot width, the same rows keep their window in registers.
// `active_mont_kernels()` picks the hardware table once, from CPUID; there
// is no setting to override it. Tests reach the portable kernel by passing
// `portable_mont_kernels()` to a Montgomery context.
//
// Neither kernel branches on operand values: every loop runs a count fixed
// by n, and the final subtraction is computed unconditionally and selected.
#pragma once

#include <cstddef>
#include <cstdint>

namespace datablinder::bigint {

/// Widest modulus, in 64-bit limbs, a Montgomery context accepts: 8,192
/// bits, the n^2 of a 4,096-bit Paillier key. Every kernel handles every
/// limb count from 1 to this capacity; a wider modulus is rejected.
inline constexpr std::size_t kMontMaxLimbs = 128;

struct MontKernels {
  /// out[0..n) = a * b * R^-1 mod m, with R = 2^(64 n), for n-limb a, b < m
  /// and odd m. `m0inv` is -m^-1 mod 2^64. `out` may alias `a` or `b`.
  /// Requires 1 <= n <= kMontMaxLimbs.
  void (*mul)(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* m, std::uint64_t m0inv, std::size_t n);
};

/// The reference kernel; always available.
const MontKernels& portable_mont_kernels();

/// The BMI2 + ADX kernel, or nullptr when the CPU lacks either.
const MontKernels* hardware_mont_kernels();

/// Hardware when available, else portable. Decided once per process.
const MontKernels& active_mont_kernels();

}  // namespace datablinder::bigint
