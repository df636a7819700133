// Montgomery modular arithmetic context (Montgomery, 1985).
//
// Precomputes, once per odd modulus m of n 64-bit limbs:
//   * n0'  = -m^{-1} mod 2^64          (word-inverse, Hensel lifting)
//   * R^2 mod m, where R = 2^(64 n)    (one Knuth-D division, amortized)
// after which every modular multiplication is a single CIOS
// (Coarsely-Integrated Operand Scanning) pass — no division at all — and
// modular exponentiation runs a fixed 4-bit-window ladder over CIOS steps.
//
// This is the kernel under every public-key hot path in the library:
// Paillier encrypt/decrypt (mod n^2, and mod p^2/q^2 under CRT) and the
// Sophos RSA trapdoor permutation.
// Callers hold one context per long-lived modulus; `BigInt::pow_mod`
// builds a transient context for one-shot odd-modulus calls.
//
// The window ladder multiplies unconditionally by the table entry (the
// zero digit multiplies by the Montgomery one), so the CIOS sequence per
// exponent bit-length is fixed — square-and-multiply's value-dependent
// multiply pattern does not reappear here.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"

namespace datablinder::bigint {

class Montgomery {
 public:
  /// Requires m odd and > 1; throws Error(kInvalidArgument) otherwise.
  /// (Even moduli cannot be Montgomery-reduced — callers keep the generic
  /// `BigInt::pow_mod_generic` path for those.)
  explicit Montgomery(const BigInt& m);

  const BigInt& modulus() const noexcept { return modulus_; }
  std::size_t limb_count() const noexcept { return n_; }

  /// (a * b) mod m — two CIOS passes (into and out of the residue domain).
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^exp mod m — fixed 4-bit-window exponentiation. Requires exp >= 0.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
  using Limb = BigInt::Limb;
  using Limbs = std::vector<Limb>;

  /// Fixed-width (n_-limb) residue from a reduced BigInt.
  Limbs residue(const BigInt& a) const;
  BigInt from_residue(const Limbs& a) const;

  /// out = (a * b * R^-1) mod m, all fixed n_-limb vectors.
  void cios(const Limbs& a, const Limbs& b, Limbs& out) const;

  BigInt modulus_;
  Limbs mod_;       // modulus, exactly n_ limbs
  Limbs r2_;        // R^2 mod m
  Limbs one_mont_;  // R mod m (Montgomery form of 1)
  Limb n0_ = 0;     // -m^{-1} mod 2^64
  std::size_t n_ = 0;
};

}  // namespace datablinder::bigint
