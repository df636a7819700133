// Differential tests for the Montgomery fast paths: every accelerated
// route (CIOS kernel, Paillier CRT + randomizer pool, Sophos cached
// contexts, hoisted PRF key schedules) is pinned bit-for-bit against the
// reference implementation it replaced.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/prf.hpp"
#include "phe/paillier.hpp"
#include "sse/sophos.hpp"

namespace datablinder {
namespace {

using bigint::BigInt;
using bigint::Montgomery;

BigInt random_odd(std::size_t bits) {
  BigInt m = BigInt::random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  return m;
}

// --- kernel vs generic ---------------------------------------------------------

TEST(MontgomeryDifferential, PowMatchesGenericAcrossBitLengths) {
  // Non-word-aligned lengths are deliberate: 65/127/129/193/257 exercise
  // the partial-limb handling in the CIOS loop and R^2 setup.
  for (const std::size_t bits : {8UL, 63UL, 64UL, 65UL, 127UL, 128UL, 129UL,
                                 193UL, 256UL, 257UL, 512UL, 521UL}) {
    const BigInt m = random_odd(bits);
    if (m == BigInt(1)) continue;
    const Montgomery ctx(m);
    for (int trial = 0; trial < 4; ++trial) {
      const BigInt base = BigInt::random_below(m);
      const BigInt exp = BigInt::random_below(m);
      EXPECT_EQ(base.pow_mod(exp, ctx), base.pow_mod_generic(exp, m))
          << bits << " bits, trial " << trial;
    }
  }
}

TEST(MontgomeryDifferential, MulMatchesGeneric) {
  for (const std::size_t bits : {65UL, 128UL, 255UL, 512UL}) {
    const BigInt m = random_odd(bits);
    const Montgomery ctx(m);
    for (int trial = 0; trial < 8; ++trial) {
      const BigInt a = BigInt::random_below(m);
      const BigInt b = BigInt::random_below(m);
      EXPECT_EQ(a.mul_mod(b, ctx), a.mul_mod(b, m)) << bits << " bits";
    }
  }
}

TEST(MontgomeryDifferential, AutoDispatchMatchesGenericForOddModuli) {
  for (int trial = 0; trial < 8; ++trial) {
    const BigInt m = random_odd(192);
    const BigInt base = BigInt::random_below(m);
    const BigInt exp = BigInt::random_below(m);
    EXPECT_EQ(base.pow_mod(exp, m), base.pow_mod_generic(exp, m));
  }
}

TEST(MontgomeryDifferential, EvenModulusFallsBackToGeneric) {
  const BigInt m = BigInt::from_hex("10000000000000000000000000000000000");
  const BigInt base = BigInt::random_below(m);
  const BigInt exp = BigInt(65537);
  EXPECT_EQ(base.pow_mod(exp, m), base.pow_mod_generic(exp, m));
}

TEST(MontgomeryDifferential, ContextEdgeCases) {
  const BigInt m = random_odd(256);
  const Montgomery ctx(m);
  const BigInt a = BigInt::random_below(m);
  EXPECT_EQ(BigInt(0).pow_mod(BigInt(5), ctx), BigInt(0));
  EXPECT_EQ(a.pow_mod(BigInt(0), ctx), BigInt(1));
  EXPECT_EQ(a.pow_mod(BigInt(1), ctx), a);
  // Out-of-range operands are reduced on entry.
  EXPECT_EQ((a + m).mul_mod(a, ctx), a.mul_mod(a, m));
  EXPECT_EQ((a + m + m).pow_mod(BigInt(3), ctx), a.pow_mod_generic(BigInt(3), m));
}

TEST(MontgomeryDifferential, RejectsBadModuli) {
  EXPECT_THROW(Montgomery(BigInt(4)), Error);
  EXPECT_THROW(Montgomery(BigInt(1)), Error);
  EXPECT_THROW(Montgomery(BigInt(0)), Error);
}

// --- Paillier ------------------------------------------------------------------

class PaillierSizeDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaillierSizeDifferential, RoundTripAndCrtAgreement) {
  const phe::PaillierKeyPair kp = phe::paillier_generate(GetParam());
  DetRng rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    const std::int64_t m = rng.range(-1000000, 1000000);
    const BigInt ct = kp.pub.encrypt_i64(m);
    // CRT decryption (fast path) against the lambda/mu reference.
    EXPECT_EQ(kp.priv.decrypt(ct), kp.priv.decrypt_generic(ct)) << m;
    EXPECT_EQ(kp.priv.decrypt_i64(ct), m);
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusSizes, PaillierSizeDifferential,
                         ::testing::Values(256, 512, 1024));

TEST(PaillierDifferential, FastAndSlowKeysInteroperate) {
  // A hand-built key (no init_fast_paths, no p/q) must produce ciphertexts
  // the accelerated key decrypts, and vice versa.
  const phe::PaillierKeyPair fast = phe::paillier_generate(256);
  phe::PaillierKeyPair slow;
  slow.pub.n = fast.pub.n;
  slow.pub.n_squared = fast.pub.n_squared;
  slow.priv.lambda = fast.priv.lambda;
  slow.priv.mu = fast.priv.mu;
  slow.priv.pub = slow.pub;
  for (const std::int64_t m : {-777LL, 0LL, 31337LL}) {
    EXPECT_EQ(fast.priv.decrypt_i64(slow.pub.encrypt_i64(m)), m);
    EXPECT_EQ(slow.priv.decrypt_i64(fast.pub.encrypt_i64(m)), m);
  }
}

TEST(PaillierDifferential, RandomizerPoolPreservesCorrectness) {
  phe::PaillierKeyPair kp = phe::paillier_generate(256);
  kp.pub.init_fast_paths(/*pool_low_water=*/4);
  ASSERT_NE(kp.pub.pool, nullptr);
  EXPECT_GE(kp.pub.pool->size(), 4u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(kp.priv.decrypt_i64(kp.pub.encrypt_i64(i * 17 - 50)), i * 17 - 50);
  }
  EXPECT_GT(kp.pub.pool->hits(), 0u);
  // Two pooled encryptions of one plaintext still differ (fresh factors).
  EXPECT_NE(kp.pub.encrypt_i64(9), kp.pub.encrypt_i64(9));
}

TEST(PaillierDifferential, RandomizerPoolRefillsToHighWater) {
  // Draining below the low-water mark schedules one refill on the pool's
  // worker; it tops the pool up to the high-water mark (2x low) and stops.
  const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  phe::PaillierRandomizerPool pool(kp.pub.n, kp.pub.mont_n2, /*low_water=*/4);
  pool.prefill(4);
  pool.take();
  pool.take();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.size() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(pool.hits(), 2u);
}

TEST(PaillierDifferential, RandomizerPoolDestroyedMidRefillJoinsCleanly) {
  // The refill is still exponentiating when the pool goes away: the
  // destructor must stop and join it before the deque and mutex die.
  const phe::PaillierKeyPair kp = phe::paillier_generate(512);
  for (int round = 0; round < 4; ++round) {
    phe::PaillierRandomizerPool pool(kp.pub.n, kp.pub.mont_n2, /*low_water=*/16);
    pool.prefill(16);
    pool.take();
    EXPECT_LT(pool.size(), 32u);
  }
}

// --- Sophos --------------------------------------------------------------------

TEST(SophosDifferential, ContextAndFallbackSearchAgree) {
  const Bytes key(32, 0x42);
  sse::SophosClient client(key, 512);
  sse::SophosPublicParams params = client.public_params();
  ASSERT_NE(params.mont_n, nullptr);
  sse::SophosServer fast_server(params);
  params.mont_n = nullptr;  // schoolbook pow_mod path
  sse::SophosServer slow_server(params);

  for (int i = 0; i < 6; ++i) {
    const auto token = client.update("kw", "doc-" + std::to_string(i));
    fast_server.apply_update(token);
    slow_server.apply_update(token);
  }
  const auto st = client.search_token("kw");
  ASSERT_TRUE(st.has_value());
  const auto fast_ids = fast_server.search(*st);
  const auto slow_ids = slow_server.search(*st);
  EXPECT_EQ(fast_ids, slow_ids);
  ASSERT_EQ(fast_ids.size(), 6u);
  EXPECT_EQ(fast_ids.front(), "doc-5");  // newest first
}

// --- PrfKey --------------------------------------------------------------------

TEST(PrfKeyDifferential, MatchesFreeFunctions) {
  for (const std::size_t key_len : {1UL, 16UL, 32UL, 64UL, 65UL, 200UL}) {
    const Bytes key = SecureRng::bytes(key_len);
    const crypto::PrfKey pk(key);
    for (const std::size_t msg_len : {0UL, 1UL, 55UL, 64UL, 100UL}) {
      const Bytes msg = SecureRng::bytes(msg_len);
      EXPECT_EQ(pk.prf(msg), crypto::prf(key, msg)) << key_len << "/" << msg_len;
      EXPECT_EQ(pk.prf_labeled("label", msg), crypto::prf_labeled(key, "label", msg));
      EXPECT_EQ(pk.prf_n(msg, 16), crypto::prf_n(key, msg, 16));
      EXPECT_EQ(pk.prf_n(msg, 32), crypto::prf_n(key, msg, 32));
      EXPECT_EQ(pk.prf_n(msg, 100), crypto::prf_n(key, msg, 100));
      EXPECT_EQ(pk.prf_u64(msg), crypto::prf_u64(key, msg));
      EXPECT_EQ(pk.prf_mod(msg, 97), crypto::prf_mod(key, msg, 97));
    }
  }
}

TEST(PrfKeyDifferential, CopiesAreIndependent) {
  const Bytes key = SecureRng::bytes(32);
  const crypto::PrfKey original(key);
  const crypto::PrfKey copy = original;
  const Bytes msg = SecureRng::bytes(40);
  EXPECT_EQ(copy.prf(msg), original.prf(msg));
  EXPECT_EQ(copy.prf(msg), crypto::prf(key, msg));
}

}  // namespace
}  // namespace datablinder
