// Property-preserving encryption tests: DET determinism, OPE order
// preservation and inversion, ORE comparison correctness.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "ppe/det.hpp"
#include "ppe/ope.hpp"
#include "ppe/ore.hpp"

namespace datablinder::ppe {
namespace {

TEST(DetTest, DeterministicWithinContext) {
  DetCipher c(Bytes(32, 1), "obs.status");
  EXPECT_EQ(c.encrypt(to_bytes("final")), c.encrypt(to_bytes("final")));
  EXPECT_NE(c.encrypt(to_bytes("final")), c.encrypt(to_bytes("amended")));
}

TEST(DetTest, ContextSeparatesEqualValues) {
  DetCipher status(Bytes(32, 1), "obs.status");
  DetCipher code(Bytes(32, 1), "obs.code");
  // Same key, same plaintext, different field: ciphertexts must differ so
  // cross-field frequency correlation is impossible.
  EXPECT_NE(status.encrypt(to_bytes("x")), code.encrypt(to_bytes("x")));
  EXPECT_FALSE(code.decrypt(status.encrypt(to_bytes("x"))).has_value());
}

TEST(DetTest, RoundTripAndTamper) {
  DetCipher c(Bytes(32, 2), "f");
  Bytes ct = c.encrypt(to_bytes("payload"));
  auto back = c.decrypt(ct);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(to_string(*back), "payload");
  ct[5] ^= 1;
  EXPECT_FALSE(c.decrypt(ct).has_value());
}

TEST(OpeTest, PreservesOrderOnKnownValues) {
  OpeCipher c(Bytes(32, 4), "obs.effective");
  const std::uint64_t values[] = {0, 1, 2, 100, 1000, 1359966610, UINT64_MAX - 1,
                                  UINT64_MAX};
  for (std::size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(c.encrypt(values[i]), c.encrypt(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(OpeTest, DeterministicAndKeyDependent) {
  OpeCipher a(Bytes(32, 5), "f");
  OpeCipher b(Bytes(32, 6), "f");
  EXPECT_EQ(a.encrypt(12345), a.encrypt(12345));
  EXPECT_NE(a.encrypt(12345), b.encrypt(12345));
}

TEST(OpeTest, RandomizedOrderProperty) {
  OpeCipher c(Bytes(32, 7), "f");
  DetRng rng(99);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t x = rng.engine()();
    const std::uint64_t y = rng.engine()();
    const auto cx = c.encrypt(x);
    const auto cy = c.encrypt(y);
    if (x < y) EXPECT_LT(cx, cy);
    else if (x > y) EXPECT_GT(cx, cy);
    else EXPECT_EQ(cx, cy);
  }
}

TEST(OpeTest, AdjacentValuesDistinct) {
  OpeCipher c(Bytes(32, 8), "f");
  DetRng rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.engine()() - 1;
    EXPECT_LT(c.encrypt(x), c.encrypt(x + 1));
  }
}

TEST(OpeTest, DecryptInvertsEncrypt) {
  OpeCipher c(Bytes(32, 9), "f");
  for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{123456789}, UINT64_MAX}) {
    EXPECT_EQ(c.decrypt(c.encrypt(x)), x);
  }
  // Not-a-ciphertext is rejected.
  Ope128 bogus = c.encrypt(500);
  bogus.lo ^= 1;
  EXPECT_THROW(c.decrypt(bogus), Error);
}

TEST(OpeTest, CiphertextBytesSortLikeNumbers) {
  OpeCipher c(Bytes(32, 10), "f");
  const Bytes a = c.encrypt(10).to_bytes();
  const Bytes b = c.encrypt(20).to_bytes();
  EXPECT_LT(a, b);  // lexicographic byte order == numeric order
  EXPECT_EQ(Ope128::from_bytes(a), c.encrypt(10));
}

TEST(OreTest, CompareMatchesPlaintextOrder) {
  OreCipher c(Bytes(32, 11), "obs.issued", 64);
  DetRng rng(13);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = rng.engine()();
    const std::uint64_t y = rng.engine()();
    const auto result = OreCipher::compare(c.encrypt_left(x), c.encrypt_right(y));
    if (x < y) EXPECT_EQ(result, OreResult::kLess);
    else if (x > y) EXPECT_EQ(result, OreResult::kGreater);
    else EXPECT_EQ(result, OreResult::kEqual);
  }
}

TEST(OreTest, EqualityDetected) {
  OreCipher c(Bytes(32, 12), "f", 64);
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{42}, UINT64_MAX}) {
    EXPECT_EQ(OreCipher::compare(c.encrypt_left(v), c.encrypt_right(v)),
              OreResult::kEqual);
  }
}

TEST(OreTest, RightCiphertextsAreProbabilistic) {
  OreCipher c(Bytes(32, 13), "f", 64);
  const Bytes r1 = c.encrypt_right(777).serialize();
  const Bytes r2 = c.encrypt_right(777).serialize();
  EXPECT_NE(r1, r2);  // fresh nonce: stored ciphertexts are unlinkable
  // But both compare identically against a left token.
  EXPECT_EQ(OreCipher::compare(c.encrypt_left(777), OreRight::deserialize(r1)),
            OreResult::kEqual);
  EXPECT_EQ(OreCipher::compare(c.encrypt_left(777), OreRight::deserialize(r2)),
            OreResult::kEqual);
}

TEST(OreTest, SerializationRoundTrip) {
  OreCipher c(Bytes(32, 14), "f", 32);
  const OreLeft left = c.encrypt_left(123456);
  const OreRight right = c.encrypt_right(654321);
  const OreLeft left2 = OreLeft::deserialize(left.serialize());
  const OreRight right2 = OreRight::deserialize(right.serialize());
  EXPECT_EQ(OreCipher::compare(left2, right2), OreResult::kLess);
  EXPECT_THROW(OreLeft::deserialize(Bytes{1, 2, 3}), Error);
  EXPECT_THROW(OreRight::deserialize(Bytes{1, 2, 3}), Error);
}

TEST(OreTest, NarrowDomains) {
  for (std::size_t bits : {4u, 8u, 16u, 32u}) {
    OreCipher c(Bytes(32, 15), "f", bits);
    const std::uint64_t max = (bits == 64) ? UINT64_MAX : (1ULL << bits) - 1;
    EXPECT_EQ(OreCipher::compare(c.encrypt_left(0), c.encrypt_right(max)),
              OreResult::kLess);
    EXPECT_EQ(OreCipher::compare(c.encrypt_left(max), c.encrypt_right(0)),
              OreResult::kGreater);
  }
  EXPECT_THROW(OreCipher(Bytes(32, 1), "f", 63), Error);  // not multiple of 4
  EXPECT_THROW(OreCipher(Bytes(32, 1), "f", 0), Error);
}

// Parameterized sweep: OPE order preservation across deterministic seeds.
class OpeSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpeSeedSweep, SortedPlaintextsYieldSortedCiphertexts) {
  OpeCipher c(DetRng(GetParam()).bytes(32), "sweep");
  DetRng rng(GetParam() * 31 + 1);
  std::vector<std::uint64_t> xs(64);
  for (auto& x : xs) x = rng.engine()();
  std::sort(xs.begin(), xs.end());
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    if (xs[i] == xs[i + 1]) continue;
    EXPECT_LT(c.encrypt(xs[i]), c.encrypt(xs[i + 1]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpeSeedSweep, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace datablinder::ppe
