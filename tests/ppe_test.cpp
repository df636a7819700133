// Property-preserving encryption tests: DET determinism, OPE order
// preservation and inversion, ORE comparison correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/sha256.hpp"
#include "ppe/det.hpp"
#include "ppe/ope.hpp"
#include "ppe/ore.hpp"

namespace datablinder::ppe {

/// OreCipher's deterministic-nonce encrypt_right, which only tests may reach.
struct OreKnownAnswerAccess {
  static OreRight encrypt_right(const OreCipher& c, std::uint64_t x, BytesView nonce) {
    return c.encrypt_right(x, nonce);
  }
};

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

// --- known answers -------------------------------------------------------------
// Ciphertexts recorded from the portable-SHA-256, per-call-HMAC build. A
// faster hash kernel or a hoisted key schedule must reproduce them bit for
// bit: stored OPE/ORE ciphertexts outlive any one build.

Bytes counting_key() {
  Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

Bytes counting_nonce() {
  Bytes nonce(16);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = static_cast<std::uint8_t>(0xa0 + i);
  return nonce;
}

TEST(DetKnownAnswerTest, EncryptMatchesRecordedCiphertexts) {
  const DetCipher c(counting_key(), "Patient.gender");
  EXPECT_EQ(hex_encode(c.encrypt(to_bytes("female"))),
            "10e933ba5b66e5aa1a5f0d2653b8823f4c3ab69ca78d");
  Bytes long_value(100);
  for (std::size_t i = 0; i < long_value.size(); ++i) {
    long_value[i] = static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_EQ(hex_encode(c.encrypt(long_value)),
            "7f6c87016a84317e5ff4e445731d79e96955954973c83abad0d36234dec05450466aecdc"
            "3b96fb6fb7ee212ddb9c3013bb5d5a499702fecd9a8503712e703d7fe01dfba1283e3a2e"
            "e92e304c0fdca56c0da69f433bb98ccafba1bb1f21a9b624b4eebb89e947163c2b9284e3"
            "fa0c734739d9b758");
  EXPECT_EQ(c.decrypt(hex_decode("10e933ba5b66e5aa1a5f0d2653b8823f4c3ab69ca78d")),
            to_bytes("female"));
}

TEST(OpeKnownAnswerTest, EncryptMatchesRecordedCiphertexts) {
  const OpeCipher c(counting_key(), "Observation.effective");
  const std::pair<std::uint64_t, const char*> cases[] = {
      {0, "00000000000000000000000000000000"},
      {1, "000000000000000000000010d7e9ab16"},
      {std::uint64_t{1} << 32, "00000000000006b2fcb37effbfc79b8c"},
      {std::uint64_t{1} << 63, "281d51cd1f81f0e326a791c60b1bf8b7"},
      {UINT64_MAX, "ffffffffffffffffffffe845866f7840"},
      {1262304000, "0000000000000205abb691718c28f738"},
      {1359966610, "000000000000022417e8ffa53562aa66"},
      {1700000000, "00000000000002abeb661753d961accd"},
  };
  for (const auto& [x, hex] : cases) {
    EXPECT_EQ(hex_encode(c.encrypt(x).to_bytes()), hex) << x;
    EXPECT_EQ(c.decrypt(Ope128::from_bytes(hex_decode(hex))), x) << x;
  }
}

TEST(OreKnownAnswerTest, SixteenBitLeftAndRightMatchRecordedBytes) {
  const OreCipher c(counting_key(), "Observation.value", 16);
  struct Case {
    std::uint64_t x;
    const char* left;
    const char* right;
  };
  const Case cases[] = {
      {0x0,
       "000000047940ee60061d7b14a0b802a51ac555580fd0d0863a678ec2f3aa0d627962"
       "7365790e38e9dcde9e1cc2fbff3ce0054afe35f6046cd2c97af6450da8e6886dc630"
       "ec4f3909",
       "00000004a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0001020102020002020101010202"
       "02010200010200020102000000010000020101000200020101010002010002010101"
       "02000201020001010000000200020101"},
      {0x1234,
       "00000004282d995b9c8f8163c2c835c0f460ef770a134964c876016d79f88a82b089"
       "3dbf4c07baa4a6aaa48f41cb8135f0730d58e24901212b6876f4b63e37dfa2d44266"
       "6622b90d",
       "00000004a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0001020102020002020100010202"
       "02000102010002020001000001020000010201020000020001010100000201000200"
       "01000100000200020202010002010001"},
      {0xffff,
       "00000004b2b2b55ff18117808a5985083c1f554a03363be4e5405f08bb5af62a6759"
       "992ad90d8cdeed792f9c22a219de66ebc6899b3f06d74cb432603aa06ec569d40290"
       "c7efd906",
       "00000004a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0102000000000100000202020000"
       "00000102010002020202010102000201000202020200020001000202020101000201"
       "00010102020102000001000100020002"},
  };
  for (const Case& k : cases) {
    EXPECT_EQ(hex_encode(c.encrypt_left(k.x).serialize()), k.left) << k.x;
    const OreRight right = OreKnownAnswerAccess::encrypt_right(c, k.x, counting_nonce());
    EXPECT_EQ(hex_encode(right.serialize()), k.right) << k.x;
  }
}

TEST(OreKnownAnswerTest, SixtyFourBitCiphertextDigestsMatchRecorded) {
  // A 64-bit left or right ciphertext is 276 bytes; pin its SHA-256 instead.
  const OreCipher c(counting_key(), "Observation.value", 64);
  struct Case {
    std::uint64_t x;
    const char* left_digest;
    const char* right_digest;
  };
  const Case cases[] = {
      {1359966610, "b425b4a80a5a0cb9090b468a89192ae09df7867941d3f812436ae9e8365d6e70",
       "169a0f6a40ad3d28f1709c8760d4b8c9c86503f823eea09f64ca07a8e364bf3a"},
      {UINT64_MAX, "674f8d55a3c9af8dcecc139f7dbbb5586f2b82392dab6113759a1c5ba1a4fe74",
       "5f58142025196ccf6707914e7075bf2bcd07d19c87e4954edf85b64538b22403"},
  };
  for (const Case& k : cases) {
    EXPECT_EQ(hex_encode(crypto::Sha256::digest(c.encrypt_left(k.x).serialize())),
              k.left_digest)
        << k.x;
    const OreRight right = OreKnownAnswerAccess::encrypt_right(c, k.x, counting_nonce());
    EXPECT_EQ(hex_encode(crypto::Sha256::digest(right.serialize())), k.right_digest) << k.x;
  }
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
