// Arbitrary-precision integer tests: arithmetic identities, known values,
// modular algebra and primality.
#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "bigint/prime.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace datablinder::bigint {
namespace {

TEST(BigIntTest, ConstructionAndDecimal) {
  EXPECT_EQ(BigInt(0).to_decimal(), "0");
  EXPECT_EQ(BigInt(42).to_decimal(), "42");
  EXPECT_EQ(BigInt(-42).to_decimal(), "-42");
  EXPECT_EQ(BigInt(INT64_MAX).to_decimal(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).to_decimal(), "-9223372036854775808");
  EXPECT_EQ(BigInt(UINT64_MAX).to_decimal(), "18446744073709551615");
}

TEST(BigIntTest, DecimalRoundTrip) {
  const char* cases[] = {"0", "1", "-1", "999999999999999999999999999999",
                         "-123456789012345678901234567890123456789"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt::from_decimal(c).to_decimal(), c);
  }
  EXPECT_THROW(BigInt::from_decimal(""), Error);
  EXPECT_THROW(BigInt::from_decimal("12a"), Error);
  EXPECT_THROW(BigInt::from_decimal("-"), Error);
}

TEST(BigIntTest, HexRoundTrip) {
  EXPECT_EQ(BigInt::from_hex("ff").to_decimal(), "255");
  EXPECT_EQ(BigInt::from_hex("DEADBEEF").to_hex(), "deadbeef");
  EXPECT_EQ(BigInt(255).to_hex(), "ff");
  EXPECT_EQ(BigInt(0).to_hex(), "0");
}

TEST(BigIntTest, BytesRoundTrip) {
  const Bytes b = hex_decode("0102030405060708090a0b0c0d0e0f");
  const BigInt v = BigInt::from_bytes(b);
  EXPECT_EQ(v.to_bytes(), b);
  EXPECT_EQ(v.to_bytes(20).size(), 20u);  // left-padded
  EXPECT_EQ(BigInt::from_bytes(v.to_bytes(20)), v);
  EXPECT_TRUE(BigInt::from_bytes({}).is_zero());
}

TEST(BigIntTest, AdditionSubtraction) {
  const BigInt a = BigInt::from_decimal("123456789012345678901234567890");
  const BigInt b = BigInt::from_decimal("987654321098765432109876543210");
  EXPECT_EQ((a + b).to_decimal(), "1111111110111111111011111111100");
  EXPECT_EQ((b - a).to_decimal(), "864197532086419753208641975320");
  EXPECT_EQ((a - b).to_decimal(), "-864197532086419753208641975320");
  EXPECT_EQ((a - a).to_decimal(), "0");
  EXPECT_EQ((a + (-a)).to_decimal(), "0");
}

TEST(BigIntTest, Multiplication) {
  const BigInt a = BigInt::from_decimal("123456789012345678901234567890");
  const BigInt b = BigInt::from_decimal("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_decimal(),
            "121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ((a * BigInt(0)).to_decimal(), "0");
  EXPECT_EQ((a * BigInt(-1)).to_decimal(), std::string("-").append(a.to_decimal()));
  EXPECT_EQ(((-a) * (-b)), a * b);
}

TEST(BigIntTest, DivisionKnuthD) {
  const BigInt a = BigInt::from_decimal("121932631137021795226185032733622923332237463801111263526900");
  const BigInt b = BigInt::from_decimal("987654321098765432109876543210");
  EXPECT_EQ((a / b).to_decimal(), "123456789012345678901234567890");
  EXPECT_EQ((a % b).to_decimal(), "0");

  const BigInt n = BigInt::from_decimal("987654321098765432109876543211");
  BigInt q, r;
  BigInt::div_mod(n, b, q, r);
  EXPECT_EQ(q.to_decimal(), "1");
  EXPECT_EQ(r.to_decimal(), "1");
  EXPECT_EQ(q * b + r, n);
  EXPECT_THROW(n / BigInt(0), Error);
}

TEST(BigIntTest, DivisionRandomizedInvariant) {
  DetRng rng(2024);
  for (int i = 0; i < 200; ++i) {
    const BigInt num = BigInt::from_bytes(rng.bytes(1 + rng.uniform(24)));
    const BigInt den = BigInt::from_bytes(rng.bytes(1 + rng.uniform(12)));
    if (den.is_zero()) continue;
    BigInt q, r;
    BigInt::div_mod(num, den, q, r);
    EXPECT_EQ(q * den + r, num);
    EXPECT_LT(r, den);
  }
}

TEST(BigIntTest, TruncatedDivisionSigns) {
  // C++ semantics: quotient toward zero, remainder has dividend's sign.
  EXPECT_EQ((BigInt(-17) / BigInt(5)).to_i64(), -3);
  EXPECT_EQ((BigInt(-17) % BigInt(5)).to_i64(), -2);
  EXPECT_EQ((BigInt(17) / BigInt(-5)).to_i64(), -3);
  EXPECT_EQ((BigInt(17) % BigInt(-5)).to_i64(), 2);
  // Euclidean mod is always non-negative.
  EXPECT_EQ((-BigInt(17)).mod(BigInt(5)).to_i64(), 3);
}

TEST(BigIntTest, Shifts) {
  const BigInt one(1);
  EXPECT_EQ((one << 100).to_hex(), "10000000000000000000000000");
  EXPECT_EQ(((one << 100) >> 100), one);
  EXPECT_EQ((BigInt(0xff) << 4).to_hex(), "ff0");
  EXPECT_EQ((BigInt(0xff0) >> 4).to_hex(), "ff");
  EXPECT_TRUE((BigInt(1) >> 2).is_zero());
}

TEST(BigIntTest, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt::from_decimal("100000000000000000000"), BigInt(INT64_MAX));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigIntTest, PowModFermat) {
  const BigInt p = BigInt::from_decimal("1000000007");
  for (std::int64_t base : {2, 3, 5, 123456}) {
    EXPECT_EQ(BigInt(base).pow_mod(p - BigInt(1), p), BigInt(1));
  }
  EXPECT_EQ(BigInt(5).pow_mod(BigInt(0), p), BigInt(1));
  EXPECT_EQ(BigInt(5).pow_mod(BigInt(1), p), BigInt(5));
}

TEST(BigIntTest, InvMod) {
  const BigInt m = BigInt::from_decimal("1000000007");
  DetRng rng(7);
  for (int i = 0; i < 50; ++i) {
    const BigInt a(static_cast<std::int64_t>(1 + rng.uniform(1000000))) ;
    const BigInt inv = a.inv_mod(m);
    EXPECT_EQ(a.mul_mod(inv, m), BigInt(1));
  }
  EXPECT_THROW(BigInt(6).inv_mod(BigInt(9)), Error);  // gcd 3
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_i64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_i64(), 5);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).to_i64(), 12);
  EXPECT_TRUE(BigInt::lcm(BigInt(0), BigInt(5)).is_zero());
}

TEST(BigIntTest, RandomBelowInRange) {
  const BigInt bound = BigInt::from_decimal("1000000000000000000000");
  for (int i = 0; i < 50; ++i) {
    const BigInt r = BigInt::random_below(bound);
    EXPECT_LT(r, bound);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST(BigIntTest, RandomBitsExactWidth) {
  for (std::size_t bits : {8u, 13u, 64u, 100u, 256u}) {
    EXPECT_EQ(BigInt::random_bits(bits).bit_length(), bits);
  }
}

TEST(PrimeTest, KnownPrimesAndComposites) {
  EXPECT_TRUE(is_probable_prime(BigInt(2)));
  EXPECT_TRUE(is_probable_prime(BigInt(3)));
  EXPECT_FALSE(is_probable_prime(BigInt(1)));
  EXPECT_FALSE(is_probable_prime(BigInt(0)));
  EXPECT_TRUE(is_probable_prime(BigInt::from_decimal("1000000007")));
  EXPECT_FALSE(is_probable_prime(BigInt::from_decimal("1000000008")));
  // Mersenne prime 2^127 - 1.
  EXPECT_TRUE(is_probable_prime(
      BigInt::from_decimal("170141183460469231731687303715884105727")));
  // Carmichael number 561 = 3 * 11 * 17 (fools Fermat, not Miller-Rabin).
  EXPECT_FALSE(is_probable_prime(BigInt(561)));
  EXPECT_FALSE(is_probable_prime(BigInt::from_decimal("340561")));  // Carmichael
}

TEST(PrimeTest, GeneratePrimeHasRequestedSize) {
  const BigInt p = generate_prime(128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(is_probable_prime(p));
}

TEST(PrimeTest, PrimePairSuitsPaillier) {
  const auto [p, q] = generate_prime_pair(96);
  EXPECT_NE(p, q);
  const BigInt n = p * q;
  const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  EXPECT_EQ(BigInt::gcd(n, phi), BigInt(1));
}

}  // namespace
}  // namespace datablinder::bigint
