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
// Sophos RSA trapdoor permutation. `FixedBasePow`, below, runs on the same
// kernel for a base fixed once per key (the key holder's Paillier
// encryption).
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
  friend class FixedBasePow;
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

// Fixed-base exponentiation (Lim & Lee, CRYPTO '94, one row per 4-bit
// window). For a base h fixed at construction and exponents below
// 2^exp_bits, the table holds T[i][d] = h^(d * 16^i) in Montgomery form for
// every window i and digit d, so h^e is the product of one entry per
// window: ceil(exp_bits / 4) kernel multiplies and no squarings, against
// ~1.25 multiplies per exponent bit for `Montgomery::pow`.
//
// The exponent is secret (the key holder's Paillier encryption randomness),
// so no digit picks an address: each window's entry is gathered by a
// masked scan of all 16 entries into one stack buffer, and every kernel
// call reads the same buffers in the same order whatever the exponent.
// The table costs 16 * ceil(exp_bits / 4) entries of the modulus's width
// (64 KB for a 256-bit exponent mod a 512-bit modulus). Immutable after
// construction, so concurrent `pow` calls need no locking.
class FixedBasePow {
 public:
  /// Requires 1 <= exp_bits <= 64 * kMontMaxLimbs; the base is reduced
  /// mod ctx's modulus. Copies ctx (and its kernel table).
  FixedBasePow(const Montgomery& ctx, const BigInt& base, std::size_t exp_bits);

  /// base^exp mod m. Requires 0 <= exp < 2^exp_bits; the kernel call
  /// sequence and memory reads depend on exp_bits only.
  BigInt pow(const BigInt& exp) const;

  std::size_t exp_bits() const noexcept { return exp_bits_; }

 private:
  using Limb = BigInt::Limb;

  /// out = T[w][digit], by a masked read of every entry in window w.
  void select(std::size_t w, Limb digit, Limb* out) const;

  Montgomery ctx_;
  std::size_t exp_bits_;
  std::size_t windows_;
  std::vector<Limb> table_;  // limb j of entry (w, d) at (w * n + j) * 16 + d
};

}  // namespace datablinder::bigint
