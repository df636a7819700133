// Montgomery modular arithmetic context (Montgomery, 1985).
//
// Precomputes, once per odd modulus m of n 64-bit limbs:
//   * n0'  = -m^{-1} mod 2^64          (word-inverse, Hensel lifting)
//   * R^2 mod m, where R = 2^(64 n)    (one Knuth-D division, amortized)
// after which every modular multiplication is one call of the context's
// Montgomery-multiply kernel (montgomery_kernels.hpp) — no division at all —
// and modular exponentiation runs a fixed 4-bit-window ladder over it.
//
// This is the kernel under every public-key hot path in the library:
// Paillier encrypt/decrypt (mod n^2, and mod p^2/q^2 under CRT) and the
// Sophos RSA trapdoor permutation.
// Callers hold one context per long-lived modulus; `BigInt::pow_mod`
// builds a transient context for one-shot odd-modulus calls.
//
// The kernel is the CPU's best (BMI2 + ADX when CPUID reports them), or the
// table a caller passes; every limb count up to kMontMaxLimbs runs on it,
// and a wider modulus is rejected at construction.
//
// The window ladder multiplies unconditionally by the table entry (the
// zero digit multiplies by the Montgomery one), so the sequence of kernel
// calls per exponent bit-length is fixed — square-and-multiply's
// value-dependent multiply pattern does not reappear here. `pow` allocates
// nothing but its result: the window table is one flat stack buffer, every
// multiply writes its output in place, and window digits are read straight
// from the exponent's limbs.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery_kernels.hpp"

namespace datablinder::bigint {

class Montgomery {
 public:
  /// Requires m odd, > 1 and at most kMontMaxLimbs limbs wide; throws
  /// Error(kInvalidArgument) otherwise. (Even moduli cannot be
  /// Montgomery-reduced — callers keep the generic
  /// `BigInt::pow_mod_generic` path for those.)
  explicit Montgomery(const BigInt& m, const MontKernels& kernels = active_mont_kernels());

  const BigInt& modulus() const noexcept { return modulus_; }
  std::size_t limb_count() const noexcept { return n_; }

  /// (a * b) mod m — two kernel calls (into and out of the residue domain).
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^exp mod m — fixed 4-bit-window exponentiation. Requires exp >= 0.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
  using Limb = BigInt::Limb;

  /// Writes a mod m as exactly n_ limbs.
  void load(const BigInt& a, Limb* out) const;
  BigInt from_limbs(const Limb* a) const;

  /// out = (a * b * R^-1) mod m over n_ limbs; out may alias a or b.
  void mul_into(Limb* out, const Limb* a, const Limb* b) const {
    kernels_->mul(out, a, b, mod_.data(), n0_, n_);
  }

  BigInt modulus_;
  std::vector<Limb> mod_;       // modulus, exactly n_ limbs
  std::vector<Limb> r2_;        // R^2 mod m
  std::vector<Limb> one_mont_;  // R mod m (Montgomery form of 1)
  Limb n0_ = 0;                 // -m^{-1} mod 2^64
  std::size_t n_ = 0;
  const MontKernels* kernels_;
};

}  // namespace datablinder::bigint
