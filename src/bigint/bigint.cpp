#include "bigint/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bigint/montgomery.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace datablinder::bigint {

namespace {
using U128 = unsigned __int128;
using I128 = __int128;
constexpr std::uint64_t kLimbMask = ~0ULL;
constexpr unsigned kLimbBits = 64;
}  // namespace

BigInt::BigInt(std::int64_t v) {
  negative_ = v < 0;
  // Avoid UB on INT64_MIN by negating in unsigned space.
  const std::uint64_t mag = negative_ ? ~static_cast<std::uint64_t>(v) + 1
                                      : static_cast<std::uint64_t>(v);
  if (mag != 0) limbs_.push_back(mag);
  if (limbs_.empty()) negative_ = false;
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_decimal(std::string_view s) {
  require(!s.empty(), "BigInt::from_decimal: empty string");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    require(s.size() > 1, "BigInt::from_decimal: lone '-'");
  }
  BigInt out;
  for (; i < s.size(); ++i) {
    require(s[i] >= '0' && s[i] <= '9', "BigInt::from_decimal: bad digit");
    out = out * BigInt(10) + BigInt(static_cast<std::int64_t>(s[i] - '0'));
  }
  out.negative_ = neg && !out.is_zero();
  return out;
}

BigInt BigInt::from_hex(std::string_view s) {
  require(!s.empty(), "BigInt::from_hex: empty string");
  BigInt out;
  for (char c : s) {
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else { throw_error(ErrorCode::kInvalidArgument, "BigInt::from_hex: bad digit"); }
    out = (out << 4) + BigInt(static_cast<std::int64_t>(v));
  }
  return out;
}

BigInt BigInt::from_bytes(BytesView b) {
  BigInt out;
  const std::size_t n = b.size();
  out.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // b[0] is the most significant byte.
    const std::size_t byte_index = n - 1 - i;  // position from LSB
    out.limbs_[byte_index / 8] |= static_cast<Limb>(b[i]) << (8 * (byte_index % 8));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes(std::size_t min_len) const {
  require(!negative_, "BigInt::to_bytes: negative value");
  const std::size_t n = std::max(byte_length(), min_len);
  Bytes out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t byte_index = i;  // from LSB
    const std::size_t limb = byte_index / 8;
    if (limb < limbs_.size()) {
      out[n - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_index % 8)));
    }
  }
  return out;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  // Repeated division by 1e9 for fewer iterations.
  std::vector<std::uint32_t> chunks;
  BigInt tmp = *this;
  tmp.negative_ = false;
  const BigInt billion(static_cast<std::int64_t>(1000000000));
  while (!tmp.is_zero()) {
    BigInt q, r;
    div_mod(tmp, billion, q, r);
    chunks.push_back(static_cast<std::uint32_t>(r.is_zero() ? 0 : r.to_u64()));
    tmp = q;
  }
  std::string out = negative_ ? "-" : "";
  out += std::to_string(chunks.back());
  for (auto it = chunks.rbegin() + 1; it != chunks.rend(); ++it) {
    std::string part = std::to_string(*it);
    out += std::string(9 - part.size(), '0') + part;
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = negative_ ? "-" : "";
  bool leading = true;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const unsigned nib = (*it >> shift) & 0xf;
      if (leading && nib == 0) continue;
      leading = false;
      out.push_back(kDigits[nib]);
    }
  }
  return out;
}

std::size_t BigInt::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return kLimbBits * (limbs_.size() - 1) +
         (kLimbBits - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

std::uint64_t BigInt::to_u64() const {
  require(!negative_, "BigInt::to_u64: negative");
  require(limbs_.size() <= 1, "BigInt::to_u64: overflow");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::int64_t BigInt::to_i64() const {
  require(limbs_.size() <= 1, "BigInt::to_i64: overflow");
  const std::uint64_t mag = limbs_.empty() ? 0 : limbs_[0];
  if (negative_) {
    require(mag <= static_cast<std::uint64_t>(INT64_MAX) + 1, "BigInt::to_i64: overflow");
    return -static_cast<std::int64_t>(mag - 1) - 1;
  }
  require(mag <= static_cast<std::uint64_t>(INT64_MAX), "BigInt::to_i64: overflow");
  return static_cast<std::int64_t>(mag);
}

int BigInt::cmp_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<BigInt::Limb> BigInt::add_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<Limb> out(big.size() + 1, 0);
  U128 carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    const U128 sum = carry + big[i] + (i < small.size() ? small[i] : 0);
    out[i] = static_cast<Limb>(sum);
    carry = sum >> kLimbBits;
  }
  out[big.size()] = static_cast<Limb>(carry);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<BigInt::Limb> BigInt::sub_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  assert(cmp_mag(a, b) >= 0);
  std::vector<Limb> out(a.size(), 0);
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb ai = a[i];
    const Limb diff = ai - bi - borrow;
    // Borrow iff a < b + borrow in full precision.
    borrow = (ai < bi) || (ai == bi && borrow) ? 1 : 0;
    out[i] = diff;
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<BigInt::Limb> BigInt::mul_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<Limb> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    U128 carry = 0;
    const U128 ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const U128 cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = cur >> kLimbBits;
    }
    out[i + b.size()] += static_cast<Limb>(carry);
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

// Knuth TAOCP vol. 2, Algorithm 4.3.1 D, over 64-bit limbs with 128-bit
// intermediates.
void BigInt::div_mag(const std::vector<Limb>& num, const std::vector<Limb>& den,
                     std::vector<Limb>& quot, std::vector<Limb>& rem) {
  quot.clear();
  rem.clear();
  if (den.empty()) throw_error(ErrorCode::kInvalidArgument, "BigInt: division by zero");
  if (cmp_mag(num, den) < 0) {
    rem = num;
    return;
  }

  // Single-limb fast path.
  if (den.size() == 1) {
    const Limb d = den[0];
    quot.assign(num.size(), 0);
    Limb r = 0;
    for (std::size_t i = num.size(); i-- > 0;) {
      const U128 cur = (static_cast<U128>(r) << kLimbBits) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      r = static_cast<Limb>(cur % d);
    }
    while (!quot.empty() && quot.back() == 0) quot.pop_back();
    if (r != 0) rem.push_back(r);
    return;
  }

  const std::size_t n = den.size();
  const std::size_t m = num.size() - n;

  // D1: normalize so the divisor's top limb has its high bit set.
  const unsigned shift = static_cast<unsigned>(std::countl_zero(den.back()));
  std::vector<Limb> v(n);
  for (std::size_t i = n; i-- > 0;) {
    v[i] = den[i] << shift;
    if (shift && i > 0) v[i] |= den[i - 1] >> (kLimbBits - shift);
  }
  std::vector<Limb> u(num.size() + 1, 0);
  u[num.size()] = shift ? (num.back() >> (kLimbBits - shift)) : 0;
  for (std::size_t i = num.size(); i-- > 0;) {
    u[i] = num[i] << shift;
    if (shift && i > 0) u[i] |= num[i - 1] >> (kLimbBits - shift);
  }

  quot.assign(m + 1, 0);
  const Limb v_top = v[n - 1];
  const Limb v_second = v[n - 2];

  // D2..D7: main loop.
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat. The `q_hat >= base` disjunct short-circuits, so
    // the 64x64 products below never see a q_hat wider than one limb.
    const U128 numerator = (static_cast<U128>(u[j + n]) << kLimbBits) | u[j + n - 1];
    U128 q_hat = numerator / v_top;
    U128 r_hat = numerator % v_top;
    while (q_hat > kLimbMask ||
           static_cast<U128>(static_cast<Limb>(q_hat)) * v_second >
               ((r_hat << kLimbBits) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat > kLimbMask) break;
    }

    // D4: multiply and subtract u[j..j+n] -= q_hat * v.
    const Limb qh = static_cast<Limb>(q_hat);
    Limb mul_carry = 0;
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const U128 p = static_cast<U128>(qh) * v[i] + mul_carry;
      mul_carry = static_cast<Limb>(p >> kLimbBits);
      const Limb pl = static_cast<Limb>(p);
      const Limb ui = u[i + j];
      const Limb diff = ui - pl - borrow;
      borrow = (ui < pl) || (ui == pl && borrow) ? 1 : 0;
      u[i + j] = diff;
    }
    I128 top = static_cast<I128>(u[j + n]) - static_cast<I128>(mul_carry) -
               static_cast<I128>(borrow);

    // D5/D6: if we subtracted too much, add back one divisor.
    if (top < 0) {
      --q_hat;
      U128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const U128 sum = static_cast<U128>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<Limb>(sum);
        c = sum >> kLimbBits;
      }
      top += static_cast<I128>(c);
    }
    u[j + n] = static_cast<Limb>(top);
    quot[j] = static_cast<Limb>(q_hat);
  }

  while (!quot.empty() && quot.back() == 0) quot.pop_back();

  // D8: denormalize the remainder.
  rem.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    rem[i] = u[i] >> shift;
    if (shift && i + 1 < u.size()) rem[i] |= u[i + 1] << (kLimbBits - shift);
  }
  while (!rem.empty() && rem.back() == 0) rem.pop_back();
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  if (negative_ == rhs.negative_) {
    out.limbs_ = add_mag(limbs_, rhs.limbs_);
    out.negative_ = negative_;
  } else {
    const int c = cmp_mag(limbs_, rhs.limbs_);
    if (c == 0) return BigInt();
    if (c > 0) {
      out.limbs_ = sub_mag(limbs_, rhs.limbs_);
      out.negative_ = negative_;
    } else {
      out.limbs_ = sub_mag(rhs.limbs_, limbs_);
      out.negative_ = rhs.negative_;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const { return *this + (-rhs); }

BigInt BigInt::operator*(const BigInt& rhs) const {
  BigInt out;
  out.limbs_ = mul_mag(limbs_, rhs.limbs_);
  out.negative_ = !out.limbs_.empty() && (negative_ != rhs.negative_);
  return out;
}

void BigInt::div_mod(const BigInt& num, const BigInt& den, BigInt& quot, BigInt& rem) {
  BigInt q, r;
  div_mag(num.limbs_, den.limbs_, q.limbs_, r.limbs_);
  q.negative_ = !q.limbs_.empty() && (num.negative_ != den.negative_);
  r.negative_ = !r.limbs_.empty() && num.negative_;
  quot = std::move(q);
  rem = std::move(r);
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  BigInt q, r;
  div_mod(*this, rhs, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  BigInt q, r;
  div_mod(*this, rhs, q, r);
  return r;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = bits % kLimbBits;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift) out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
  }
  out.trim();
  return out;
}

std::strong_ordering BigInt::operator<=>(const BigInt& rhs) const noexcept {
  if (negative_ != rhs.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int c = cmp_mag(limbs_, rhs.limbs_);
  const int signed_c = negative_ ? -c : c;
  if (signed_c < 0) return std::strong_ordering::less;
  if (signed_c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::mod(const BigInt& m) const {
  require(!m.is_negative() && !m.is_zero(), "BigInt::mod: modulus must be positive");
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::mul_mod(const BigInt& rhs, const BigInt& m) const {
  return (*this * rhs).mod(m);
}

BigInt BigInt::mul_mod(const BigInt& rhs, const Montgomery& ctx) const {
  return ctx.mul(*this, rhs);
}

BigInt BigInt::pow_mod_generic(const BigInt& exp, const BigInt& m) const {
  require(!exp.is_negative(), "BigInt::pow_mod: negative exponent");
  require(!m.is_zero() && !m.is_negative(), "BigInt::pow_mod: bad modulus");
  if (m == BigInt(1)) return BigInt();
  BigInt base = this->mod(m);
  BigInt result(1);
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = result.mul_mod(result, m);
    if (exp.bit(i)) result = result.mul_mod(base, m);
  }
  return result;
}

BigInt BigInt::pow_mod(const BigInt& exp, const BigInt& m) const {
  require(!exp.is_negative(), "BigInt::pow_mod: negative exponent");
  require(!m.is_zero() && !m.is_negative(), "BigInt::pow_mod: bad modulus");
  if (m == BigInt(1)) return BigInt();
  // Odd moduli (every cryptographic modulus: RSA/Paillier n, safe primes)
  // take the Montgomery path; a transient context still wins for any
  // multi-squaring exponent. Even moduli cannot be Montgomery-reduced, and
  // moduli wider than a context's capacity stay on the generic path too.
  if (m.is_odd() && exp.bit_length() > 1 && m.limbs_.size() <= kMontMaxLimbs) {
    return Montgomery(m).pow(*this, exp);
  }
  return pow_mod_generic(exp, m);
}

BigInt BigInt::pow_mod(const BigInt& exp, const Montgomery& ctx) const {
  return ctx.pow(*this, exp);
}

BigInt BigInt::inv_mod(const BigInt& m) const {
  require(!m.is_zero() && !m.is_negative(), "BigInt::inv_mod: bad modulus");
  // Extended Euclid on (a, m).
  BigInt a = this->mod(m);
  BigInt r0 = m, r1 = a;
  BigInt t0(0), t1(1);
  while (!r1.is_zero()) {
    BigInt q, r2;
    div_mod(r0, r1, q, r2);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt(1)) {
    throw_error(ErrorCode::kInvalidArgument, "BigInt::inv_mod: not invertible");
  }
  return t0.mod(m);
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  x.negative_ = false;
  y.negative_ = false;
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  BigInt g = gcd(a, b);
  BigInt out = (a / g) * b;
  out.negative_ = false;
  return out;
}

BigInt BigInt::random_below(const BigInt& bound) {
  require(!bound.is_zero() && !bound.is_negative(), "random_below: bound must be > 0");
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  for (;;) {
    Bytes raw = SecureRng::bytes(nbytes);
    // Mask excess high bits to make rejection efficient.
    const unsigned excess = static_cast<unsigned>(nbytes * 8 - bits);
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(std::size_t bits) {
  require(bits > 0, "random_bits: bits must be > 0");
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes raw = SecureRng::bytes(nbytes);
  const unsigned excess = static_cast<unsigned>(nbytes * 8 - bits);
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // force MSB
  return from_bytes(raw);
}

}  // namespace datablinder::bigint
