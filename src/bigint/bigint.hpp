// Arbitrary-precision integers.
//
// Sign-magnitude representation over 64-bit limbs (little-endian) with
// `__uint128_t` accumulation in the inner loops. Provides everything the
// Paillier cryptosystem and the Sophos RSA trapdoor permutation need:
// schoolbook/Knuth-D arithmetic, modular exponentiation, modular inverse,
// gcd/lcm, and random sampling.
//
// Modular exponentiation has two paths:
//  * `pow_mod` — for odd moduli, delegates to a `Montgomery` reduction
//    context (montgomery.hpp) built on the fly; even moduli fall back to
//    the generic square-and-multiply below.
//  * `pow_mod_generic` — the reference square-and-multiply over Knuth-D
//    division, kept as the differential-testing baseline and the even-
//    modulus fallback.
// Callers exponentiating repeatedly under one modulus (Paillier, RSA)
// should construct a `Montgomery` context once and use the
// context-taking overloads to amortize the precomputation.
//
// This is a from-scratch replacement for the Java BigInteger the paper's
// prototype inherited from Javallier/Bouncy Castle.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace datablinder::bigint {

class Montgomery;

class BigInt {
 public:
  using Limb = std::uint64_t;

  BigInt() = default;
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor) — numeric literal ergonomics
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT

  /// Parses a decimal string with optional leading '-'.
  static BigInt from_decimal(std::string_view s);

  /// Parses a hex string (no 0x prefix, case-insensitive).
  static BigInt from_hex(std::string_view s);

  /// Interprets big-endian bytes as a non-negative integer.
  static BigInt from_bytes(BytesView b);

  /// Big-endian byte encoding (minimal length; empty for zero unless
  /// `min_len` pads). Requires *this >= 0.
  Bytes to_bytes(std::size_t min_len = 0) const;

  std::string to_decimal() const;
  std::string to_hex() const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_negative() const noexcept { return negative_; }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const noexcept { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const noexcept;

  /// Value of bit i (0 = least significant).
  bool bit(std::size_t i) const noexcept;

  /// Converts to uint64; requires the value to fit and be non-negative.
  std::uint64_t to_u64() const;
  /// Converts to int64; requires the magnitude to fit.
  std::int64_t to_i64() const;

  BigInt operator-() const;
  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& rhs) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& rhs) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }
  BigInt& operator%=(const BigInt& rhs) { return *this = *this % rhs; }

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  std::strong_ordering operator<=>(const BigInt& rhs) const noexcept;
  bool operator==(const BigInt& rhs) const noexcept = default;

  /// Euclidean (always non-negative) remainder mod m. Requires m > 0.
  BigInt mod(const BigInt& m) const;

  /// (this + rhs) mod m, inputs assumed already reduced.
  BigInt add_mod(const BigInt& rhs, const BigInt& m) const;

  /// (this * rhs) mod m.
  BigInt mul_mod(const BigInt& rhs, const BigInt& m) const;

  /// (this * rhs) mod ctx.modulus() through a Montgomery context —
  /// amortizes the per-modulus precomputation across calls.
  BigInt mul_mod(const BigInt& rhs, const Montgomery& ctx) const;

  /// this^exp mod m. Requires exp >= 0, m > 0. Odd moduli route through a
  /// transient Montgomery context; even moduli use the generic path.
  BigInt pow_mod(const BigInt& exp, const BigInt& m) const;

  /// this^exp mod ctx.modulus() through a caller-held Montgomery context.
  BigInt pow_mod(const BigInt& exp, const Montgomery& ctx) const;

  /// Reference square-and-multiply over Knuth-D division. Works for any
  /// modulus; the differential suite pins `pow_mod` against this.
  BigInt pow_mod_generic(const BigInt& exp, const BigInt& m) const;

  /// Modular inverse; throws Error(kInvalidArgument) if gcd(this, m) != 1.
  BigInt inv_mod(const BigInt& m) const;

  static BigInt gcd(const BigInt& a, const BigInt& b);
  static BigInt lcm(const BigInt& a, const BigInt& b);

  /// Uniform random integer in [0, bound) using cryptographic randomness.
  static BigInt random_below(const BigInt& bound);

  /// Random integer with exactly `bits` bits (MSB set).
  static BigInt random_bits(std::size_t bits);

  /// Both quotient and remainder in one pass (truncated semantics).
  static void div_mod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem);

 private:
  friend class Montgomery;

  // Magnitude comparison ignoring sign.
  static int cmp_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) noexcept;
  static std::vector<Limb> add_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  // Requires |a| >= |b|.
  static std::vector<Limb> sub_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  static std::vector<Limb> mul_mag(const std::vector<Limb>& a, const std::vector<Limb>& b);
  static void div_mag(const std::vector<Limb>& num, const std::vector<Limb>& den,
                      std::vector<Limb>& quot, std::vector<Limb>& rem);

  void trim() noexcept;

  // Little-endian limbs; empty means zero. negative_ is false for zero.
  std::vector<Limb> limbs_;
  bool negative_ = false;
};

}  // namespace datablinder::bigint
