#include "bigint/montgomery.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace datablinder::bigint {

namespace {
constexpr unsigned kLimbBits = 64;

/// m^{-1} mod 2^64 for odd m, by Hensel lifting: each Newton step
/// x <- x * (2 - m*x) doubles the number of correct low bits, and x = m
/// is already correct mod 2^3.
std::uint64_t word_inverse(std::uint64_t m) {
  std::uint64_t x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x;
}
}  // namespace

Montgomery::Montgomery(const BigInt& m, const MontKernels& kernels)
    : modulus_(m), kernels_(&kernels) {
  require(!m.is_negative() && m > BigInt(1), "Montgomery: modulus must be > 1");
  require(m.is_odd(), "Montgomery: modulus must be odd");
  require(m.limbs_.size() <= kMontMaxLimbs, "Montgomery: modulus wider than 8192 bits");
  mod_ = m.limbs_;
  n_ = mod_.size();
  n0_ = ~word_inverse(mod_[0]) + 1;  // -m^{-1} mod 2^64

  // R^2 mod m and R mod m via one division each — the precomputation every
  // later mul/pow amortizes away.
  BigInt r2 = (BigInt(1) << (2 * kLimbBits * n_)).mod(modulus_);
  r2_ = std::move(r2.limbs_);
  r2_.resize(n_, 0);
  BigInt r1 = (BigInt(1) << (kLimbBits * n_)).mod(modulus_);
  one_mont_ = std::move(r1.limbs_);
  one_mont_.resize(n_, 0);
}

void Montgomery::load(const BigInt& a, Limb* out) const {
  // Operands already in [0, m) — every ciphertext and blinding factor —
  // skip the division.
  const std::vector<Limb>* limbs = &a.limbs_;
  BigInt reduced;
  if (a.is_negative() || BigInt::cmp_mag(a.limbs_, mod_) >= 0) {
    reduced = a.mod(modulus_);
    limbs = &reduced.limbs_;
  }
  std::copy(limbs->begin(), limbs->end(), out);
  std::fill(out + limbs->size(), out + n_, Limb{0});
}

BigInt Montgomery::from_limbs(const Limb* a) const {
  BigInt out;
  out.limbs_.assign(a, a + n_);
  out.trim();
  return out;
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  // a*b*R^-1, then a second pass against R^2 restores the factor.
  Limb x[kMontMaxLimbs], y[kMontMaxLimbs];
  load(a, x);
  load(b, y);
  mul_into(x, x, y);
  mul_into(x, x, r2_.data());
  return from_limbs(x);
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  require(!exp.is_negative(), "Montgomery::pow: negative exponent");
  if (exp.is_zero()) return BigInt(1).mod(modulus_);
  const std::size_t n = n_;

  // The 16-entry window table, entry d at table + d*n: R mod m, then the
  // base and its powers in Montgomery form.
  Limb table[16 * kMontMaxLimbs];
  auto entry = [&](unsigned d) { return table + d * n; };
  std::copy(one_mont_.begin(), one_mont_.end(), entry(0));
  load(base, entry(1));
  mul_into(entry(1), entry(1), r2_.data());
  for (unsigned d = 2; d < 16; ++d) mul_into(entry(d), entry(d - 1), entry(1));

  // 4-bit windows never straddle a 64-bit limb.
  const std::vector<Limb>& e = exp.limbs_;
  auto digit = [&e](std::size_t w) {
    return static_cast<unsigned>(e[w / 16] >> (4 * (w % 16))) & 15u;
  };
  const std::size_t windows = (exp.bit_length() + 3) / 4;

  Limb acc[kMontMaxLimbs];
  std::copy(entry(digit(windows - 1)), entry(digit(windows - 1)) + n, acc);
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) mul_into(acc, acc, acc);
    // Unconditional table multiply (digit 0 hits the Montgomery one), so
    // the kernel call sequence depends only on the exponent's bit-length.
    mul_into(acc, acc, entry(digit(w)));
  }

  // Leave the residue domain: one more multiply, by plain 1.
  Limb one[kMontMaxLimbs] = {1};
  mul_into(acc, acc, one);
  return from_limbs(acc);
}

FixedBasePow::FixedBasePow(const Montgomery& ctx, const BigInt& base, std::size_t exp_bits)
    : ctx_(ctx), exp_bits_(exp_bits), windows_((exp_bits + 3) / 4) {
  require(exp_bits >= 1 && exp_bits <= kLimbBits * kMontMaxLimbs,
          "FixedBasePow: exponent length out of range");
  const std::size_t n = ctx_.n_;
  table_.resize(windows_ * 16 * n);
  // Each window's 16 entries are built one after another in `row`, then
  // stored limb-major (limb j of entry d at (w * n + j) * 16 + d), so the
  // masked scan reads a limb's 16 candidates as one contiguous run.
  std::vector<Limb> row(16 * n), prev(16 * n);
  auto entry = [n](std::vector<Limb>& r, unsigned d) { return r.data() + d * n; };
  for (std::size_t w = 0; w < windows_; ++w) {
    std::copy(ctx_.one_mont_.begin(), ctx_.one_mont_.end(), entry(row, 0));
    if (w == 0) {
      ctx_.load(base, entry(row, 1));
      ctx_.mul_into(entry(row, 1), entry(row, 1), ctx_.r2_.data());
    } else {
      // h^(16^w) = h^(15 * 16^(w-1)) * h^(16^(w-1)).
      ctx_.mul_into(entry(row, 1), entry(prev, 15), entry(prev, 1));
    }
    for (unsigned d = 2; d < 16; ++d) {
      ctx_.mul_into(entry(row, d), entry(row, d - 1), entry(row, 1));
    }
    Limb* block = table_.data() + w * 16 * n;
    for (unsigned d = 0; d < 16; ++d) {
      for (std::size_t j = 0; j < n; ++j) block[j * 16 + d] = row[d * n + j];
    }
    std::swap(row, prev);
  }
}

void FixedBasePow::select(std::size_t w, Limb digit, Limb* out) const {
  // mask[d] is all ones when d == digit, else zero, with no comparison to
  // branch on.
  Limb mask[16];
  for (Limb d = 0; d < 16; ++d) {
    const Limb x = d ^ digit;
    mask[d] = ((x | (Limb{0} - x)) >> 63) - 1;
  }
  const std::size_t n = ctx_.n_;
  const Limb* block = table_.data() + w * 16 * n;
  for (std::size_t j = 0; j < n; ++j) {
    const Limb* candidates = block + j * 16;
    Limb limb = 0;
    for (unsigned d = 0; d < 16; ++d) limb |= candidates[d] & mask[d];
    out[j] = limb;
  }
}

BigInt FixedBasePow::pow(const BigInt& exp) const {
  require(!exp.is_negative() && exp.bit_length() <= exp_bits_,
          "FixedBasePow::pow: exponent out of range");
  // The digits come from a zero-padded copy, so every window reads a limb.
  Limb e[kMontMaxLimbs] = {};
  std::copy(exp.limbs_.begin(), exp.limbs_.end(), e);
  auto digit = [&e](std::size_t w) { return (e[w / 16] >> (4 * (w % 16))) & 15u; };

  Limb acc[kMontMaxLimbs], pick[kMontMaxLimbs];
  select(0, digit(0), acc);
  for (std::size_t w = 1; w < windows_; ++w) {
    select(w, digit(w), pick);
    ctx_.mul_into(acc, acc, pick);
  }
  Limb one[kMontMaxLimbs] = {1};
  ctx_.mul_into(acc, acc, one);
  return ctx_.from_limbs(acc);
}

}  // namespace datablinder::bigint
