// Differential tests for the Montgomery fast paths: every accelerated
// route (the kernel tables, fixed-base exponentiation, Paillier CRT
// decryption, fixed-base encryption + randomizer pool, Sophos cached
// contexts and CRT trapdoor, hoisted PRF key schedules) is pinned against
// the reference implementation it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/montgomery_kernels.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
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

TEST(MontgomeryDifferential, PortableContextMatchesActiveAtLibraryWidths) {
  // 4 limbs: a 256-bit Paillier key's p^2; 8: a 512-bit key's p^2, q^2
  // and n; 16: its n^2; 12: a Sophos-768 modulus; 32: a 1024-bit key's n^2.
  for (const std::size_t limbs : {4UL, 8UL, 12UL, 16UL, 32UL}) {
    const BigInt m = random_odd(64 * limbs);
    const Montgomery active(m);
    const Montgomery portable(m, bigint::portable_mont_kernels());
    ASSERT_EQ(active.limb_count(), limbs);
    const BigInt base = BigInt::random_below(m);
    const BigInt exp = BigInt::random_below(m);
    EXPECT_EQ(active.pow(base, exp), portable.pow(base, exp)) << limbs << " limbs";
    EXPECT_EQ(active.mul(base, exp), portable.mul(base, exp)) << limbs << " limbs";
  }
}

TEST(MontgomeryDifferential, RejectsModuliWiderThanTheCapacity) {
  const std::size_t cap_bits = 64 * bigint::kMontMaxLimbs;
  const BigInt widest = random_odd(cap_bits);
  const BigInt base = BigInt::random_below(widest);
  EXPECT_EQ(Montgomery(widest).pow(base, BigInt(65537)),
            base.pow_mod_generic(BigInt(65537), widest));
  try {
    Montgomery{random_odd(cap_bits + 1)};
    ADD_FAILURE() << "a modulus one bit past the capacity was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  // The one-shot BigInt path keeps such moduli on the generic route.
  const BigInt wide = random_odd(cap_bits + 64);
  EXPECT_EQ(base.pow_mod(BigInt(65537), wide), base.pow_mod_generic(BigInt(65537), wide));
}

// --- kernel tables -------------------------------------------------------------

using Limbs = std::vector<std::uint64_t>;

Limbs to_limbs(const BigInt& v, std::size_t n) {
  const Bytes be = v.to_bytes(8 * n);
  Limbs out(n, 0);
  for (std::size_t i = 0; i < 8 * n; ++i) {
    out[(8 * n - 1 - i) / 8] |= std::uint64_t{be[i]} << (8 * ((8 * n - 1 - i) % 8));
  }
  return out;
}

BigInt from_limbs(const Limbs& limbs) {
  Bytes be;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    for (int b = 7; b >= 0; --b) be.push_back(static_cast<std::uint8_t>(limbs[i] >> (8 * b)));
  }
  return BigInt::from_bytes(be);
}

/// One modulus as the kernels see it, with a BigInt model of REDC.
struct KernelModulus {
  explicit KernelModulus(const BigInt& modulus)
      : m(modulus), n((modulus.bit_length() + 63) / 64), r(BigInt(1) << (64 * n)),
        limbs(to_limbs(modulus, n)), m_inv_r(modulus.inv_mod(r)),
        m0inv(to_limbs((r - m_inv_r).mod(BigInt(1) << 64), 1)[0]) {}

  /// a*b*R^-1 mod m through `k`.
  BigInt mul(const bigint::MontKernels& k, const BigInt& a, const BigInt& b) const {
    Limbs out(n);
    k.mul(out.data(), to_limbs(a, n).data(), to_limbs(b, n).data(), limbs.data(), m0inv, n);
    return from_limbs(out);
  }

  /// REDC(a*b) before its final subtraction: (a*b + q*m) / R, in [0, 2m).
  BigInt unreduced(const BigInt& a, const BigInt& b) const {
    const BigInt t = a * b;
    const BigInt q = (t.mod(r) * (r - m_inv_r)).mod(r);
    return (t + q * m) / r;
  }

  BigInt m;
  std::size_t n;
  BigInt r;
  Limbs limbs;
  BigInt m_inv_r;
  std::uint64_t m0inv;
};

TEST(MontgomeryKernels, HardwareMatchesPortableAtEveryWidth) {
  const bigint::MontKernels* hw = bigint::hardware_mont_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks BMI2 or ADX: no hardware kernel to compare";
  const bigint::MontKernels& sw = bigint::portable_mont_kernels();
  for (std::size_t n = 1; n <= bigint::kMontMaxLimbs; ++n) {
    // A full-width modulus and one whose top limb is nearly empty.
    for (const std::size_t bits : {64 * n, 64 * n - 59}) {
      const KernelModulus km(random_odd(bits));
      ASSERT_EQ(km.n, n);
      const BigInt r_mod_m = km.r.mod(km.m);
      std::vector<BigInt> operands = {BigInt(0), BigInt(1), km.m - BigInt(1), r_mod_m};
      for (int i = 0; i < 3; ++i) operands.push_back(BigInt::random_below(km.m));
      for (const BigInt& a : operands) {
        for (const BigInt& b : operands) {
          const BigInt want = km.mul(sw, a, b);
          ASSERT_EQ(km.mul(*hw, a, b), want) << n << " limbs, " << bits << " bits";
          ASSERT_LT(want, km.m);
        }
      }
    }
  }
}

TEST(MontgomeryKernels, FinalSubtractionTakenAndSkippedAgreeWithModel) {
  // Operands are drawn until REDC's final subtraction has been both skipped
  // and taken, with and without a carry out of the top limb (the all-ones
  // modulus R-1 makes that carry common). Every kernel must give the model's
  // answer in every class.
  std::vector<const bigint::MontKernels*> tables = {&bigint::portable_mont_kernels()};
  if (bigint::hardware_mont_kernels() != nullptr) {
    tables.push_back(bigint::hardware_mont_kernels());
  }
  for (const std::size_t n : {1UL, 4UL, 8UL, 12UL, 16UL}) {
    const BigInt all_ones = (BigInt(1) << (64 * n)) - BigInt(1);
    for (const BigInt& modulus : {random_odd(64 * n), all_ones}) {
      const KernelModulus km(modulus);
      const BigInt r_inv = km.r.mod(km.m).inv_mod(km.m);
      bool skipped = false, taken = false, carried = false;
      for (int trial = 0; trial < 4000 && !(skipped && taken && (carried || modulus != all_ones));
           ++trial) {
        const BigInt a = BigInt::random_below(km.m);
        const BigInt b = BigInt::random_below(km.m);
        const BigInt u = km.unreduced(a, b);
        ASSERT_LT(u, km.m + km.m);
        (u >= km.m ? taken : skipped) = true;
        if (u >= km.r) carried = true;
        const BigInt want = (a * b * r_inv).mod(km.m);
        for (const bigint::MontKernels* k : tables) ASSERT_EQ(km.mul(*k, a, b), want) << n;
      }
      EXPECT_TRUE(skipped) << n << " limbs: subtraction never skipped";
      EXPECT_TRUE(taken) << n << " limbs: subtraction never taken";
      if (modulus == all_ones) {
        EXPECT_TRUE(carried) << n << " limbs: no carry out";
      }
    }
  }
}

/// Kernel calls a context makes, recorded by a table that wraps the
/// portable kernel: (squaring, i.e. a is b; width).
std::vector<std::pair<bool, std::size_t>> g_kernel_calls;

void counting_mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                  const std::uint64_t* m, std::uint64_t m0inv, std::size_t n) {
  g_kernel_calls.emplace_back(a == b, n);
  bigint::portable_mont_kernels().mul(out, a, b, m, m0inv, n);
}

TEST(MontgomeryKernels, CallSequenceDependsOnlyOnExponentBitLength) {
  const bigint::MontKernels counting{counting_mul};
  const BigInt m = random_odd(512);
  const Montgomery ctx(m, counting);
  const BigInt base = BigInt::random_below(m);
  // Lowest and highest Hamming weight at 509 bits, and a random exponent
  // of the same length: square-and-multiply would call the kernel 509,
  // 1017 and ~763 times.
  const std::size_t bits = 509;
  const BigInt sparse = BigInt(1) << (bits - 1);
  const BigInt dense = (BigInt(1) << bits) - BigInt(1);
  const BigInt mixed = sparse + BigInt::random_below(sparse);
  std::vector<std::vector<std::pair<bool, std::size_t>>> sequences;
  for (const BigInt& exp : {sparse, dense, mixed}) {
    ASSERT_EQ(exp.bit_length(), bits);
    g_kernel_calls.clear();
    EXPECT_EQ(ctx.pow(base, exp), base.pow_mod_generic(exp, m));
    sequences.push_back(g_kernel_calls);
  }
  // Base into Montgomery form, 14 table entries (the first a squaring),
  // 4 squarings and a multiply per further window, one multiply out of
  // the domain.
  const std::size_t windows = (bits + 3) / 4;
  EXPECT_EQ(sequences[0].size(), 1 + 14 + 5 * (windows - 1) + 1);
  EXPECT_EQ(std::count(sequences[0].begin(), sequences[0].end(), std::pair{true, std::size_t{8}}),
            static_cast<std::ptrdiff_t>(1 + 4 * (windows - 1)));
  EXPECT_EQ(sequences[1], sequences[0]);
  EXPECT_EQ(sequences[2], sequences[0]);
  g_kernel_calls.clear();
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
  kp.priv.init_fast_paths(/*pool_low_water=*/4);
  const auto& pool = kp.priv.pub.pool;
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->size(), 4u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(kp.priv.decrypt_i64(kp.priv.encrypt_i64(i * 17 - 50)), i * 17 - 50);
  }
  EXPECT_GT(pool->hits(), 0u);
  // Two pooled encryptions of one plaintext still differ (fresh factors).
  EXPECT_NE(kp.priv.encrypt_i64(9), kp.priv.encrypt_i64(9));
}

/// A pool source with the public path's cost profile, for the pool's own
/// mechanics (refill, shutdown).
std::function<BigInt()> public_factors(const phe::PaillierKeyPair& kp) {
  return [&kp] { return kp.pub.encrypt_i64(0); };  // Enc(0; r) = r^n mod n^2
}

TEST(PaillierDifferential, RandomizerPoolRefillsToHighWater) {
  // Draining below the low-water mark schedules one refill on the pool's
  // worker; it tops the pool up to the high-water mark (2x low) and stops.
  const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  phe::PaillierRandomizerPool pool(public_factors(kp), /*low_water=*/4);
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
    phe::PaillierRandomizerPool pool(public_factors(kp), /*low_water=*/16);
    pool.prefill(16);
    pool.take();
    EXPECT_LT(pool.size(), 32u);
  }
}

// --- fixed-base exponentiation ------------------------------------------------

/// Exponents below 2^bits that stress the table walk: 0, 1, all ones, only
/// the top window set, and random ones.
std::vector<BigInt> fixed_base_exponents(std::size_t bits) {
  const BigInt all_ones = (BigInt(1) << bits) - BigInt(1);
  const std::size_t top_window = 4 * ((bits - 1) / 4);
  std::vector<BigInt> out = {BigInt(0), BigInt(1), all_ones,
                             (all_ones >> top_window) << top_window};
  for (int i = 0; i < 6; ++i) out.push_back(BigInt::random_below(all_ones + BigInt(1)));
  return out;
}

TEST(FixedBasePow, TableWalkEqualsPowOnEveryKernel) {
  std::vector<const bigint::MontKernels*> tables = {&bigint::portable_mont_kernels()};
  if (bigint::hardware_mont_kernels() != nullptr) {
    tables.push_back(bigint::hardware_mont_kernels());
  }
  for (const bigint::MontKernels* k : tables) {
    for (const std::size_t limbs : {1UL, 8UL, 32UL}) {
      const BigInt m = random_odd(64 * limbs);
      const Montgomery ctx(m, *k);
      const BigInt h = BigInt::random_below(m);
      // A whole number of windows, and a top window of one bit.
      for (const std::size_t bits : {32 * limbs, 32 * limbs + 1}) {
        const bigint::FixedBasePow fixed(ctx, h, bits);
        for (const BigInt& alpha : fixed_base_exponents(bits)) {
          ASSERT_EQ(fixed.pow(alpha), ctx.pow(h, alpha))
              << limbs << " limbs, " << bits << "-bit exponent " << alpha.to_decimal();
        }
      }
      // A base at or above the modulus is reduced first, as pow reduces it.
      const bigint::FixedBasePow wide(ctx, h + m, 16);
      EXPECT_EQ(wide.pow(BigInt(40503)), h.pow_mod_generic(BigInt(40503), m));
    }
  }
}

TEST(FixedBasePow, RejectsExponentsOutsideTheTable) {
  const BigInt m = random_odd(256);
  const Montgomery ctx(m);
  const bigint::FixedBasePow fixed(ctx, BigInt(7), 100);
  EXPECT_THROW(fixed.pow(BigInt(1) << 100), Error);
  EXPECT_THROW(fixed.pow(BigInt(-1)), Error);
  EXPECT_THROW(bigint::FixedBasePow(ctx, BigInt(7), 0), Error);
  EXPECT_EQ(fixed.pow((BigInt(1) << 100) - BigInt(1)),
            BigInt(7).pow_mod_generic((BigInt(1) << 100) - BigInt(1), m));
}

/// Every kernel call's operand addresses, recorded by a table that wraps
/// the portable kernel.
std::vector<std::vector<const void*>> g_kernel_operands;

void recording_mul(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                   const std::uint64_t* m, std::uint64_t m0inv, std::size_t n) {
  g_kernel_operands.push_back({out, a, b, m});
  bigint::portable_mont_kernels().mul(out, a, b, m, m0inv, n);
}

TEST(FixedBasePow, NoExponentDigitPicksAnAddress) {
  // The walk gathers each window's entry by a masked scan into one buffer,
  // so the kernel sees the same operands, call for call, for any exponent
  // the table covers: sparse, dense, random and zero. The log sees kernel
  // operands only; the scan itself reads all 16 entries of every window.
  const bigint::MontKernels recording{recording_mul};
  const BigInt m = random_odd(512);
  const Montgomery ctx(m, recording);
  const BigInt h = BigInt::random_below(m);
  const std::size_t bits = 256;
  const bigint::FixedBasePow fixed(ctx, h, bits);
  const BigInt sparse = BigInt(1) << (bits - 1);
  const BigInt dense = (BigInt(1) << bits) - BigInt(1);
  const BigInt mixed = sparse + BigInt::random_below(sparse);
  std::vector<std::vector<std::vector<const void*>>> logs;
  for (const BigInt& alpha : {sparse, dense, mixed, BigInt(0)}) {
    g_kernel_operands.clear();
    EXPECT_EQ(fixed.pow(alpha), h.pow_mod_generic(alpha, m));
    logs.push_back(g_kernel_operands);
  }
  // One multiply per further window and one out of the domain.
  EXPECT_EQ(logs[0].size(), bits / 4);
  for (std::size_t i = 1; i < logs.size(); ++i) EXPECT_EQ(logs[i], logs[0]) << i;
  g_kernel_operands.clear();
}

// --- Paillier fixed-base encryption --------------------------------------------

class PaillierFixedBaseEncryption : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaillierFixedBaseEncryption, RoundTripsBoundaryPlaintexts) {
  const phe::PaillierKeyPair kp = phe::paillier_generate(GetParam());
  ASSERT_TRUE(kp.priv.has_crt());
  // Half-range encoding: (n-1)/2 is the largest positive plaintext and
  // -(n-1)/2 the most negative one; the int64 extremes ride the same path.
  const BigInt half = kp.pub.n >> 1;
  const BigInt two62 = BigInt(1) << 62;
  for (const BigInt& m :
       {BigInt(0), BigInt(1), BigInt(-1), two62, -two62, half, -half, half - BigInt(1),
        -(half - BigInt(1)), BigInt(INT64_MAX), BigInt(INT64_MIN)}) {
    const BigInt ct = kp.priv.encrypt(m);
    EXPECT_LT(ct, kp.pub.n_squared);
    EXPECT_EQ(kp.priv.decrypt(ct), m) << m.to_decimal();
    EXPECT_EQ(kp.priv.decrypt_generic(ct), m) << m.to_decimal();
  }
  // Fresh alpha per encryption: one plaintext, two ciphertexts.
  EXPECT_NE(kp.priv.encrypt_i64(9), kp.priv.encrypt_i64(9));
}

INSTANTIATE_TEST_SUITE_P(ModulusSizes, PaillierFixedBaseEncryption,
                         ::testing::Values(256, 512, 1024));

TEST(PaillierFixedBaseEncryptionTest, HomomorphicAddMixesFixedBaseAndPublicCiphertexts) {
  const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  DetRng rng(41);
  BigInt acc = kp.pub.encrypt_zero();
  std::int64_t sum = 0;
  for (int i = 0; i < 10; ++i) {
    const std::int64_t v = rng.range(-50000, 50000);
    acc = kp.pub.add(acc, i % 2 == 0 ? kp.priv.encrypt_i64(v) : kp.pub.encrypt_i64(v));
    sum += v;
  }
  EXPECT_EQ(kp.priv.decrypt_i64(acc), sum);
  EXPECT_EQ(kp.priv.decrypt_i64(kp.pub.add(kp.priv.encrypt_i64(7), kp.pub.encrypt_i64(-9))),
            -2);
}

TEST(PaillierFixedBaseEncryptionTest, EachLoadedKeyDrawsItsOwnBase) {
  // Two key holders loaded from the same factors build their own h_s; each
  // decrypts the other's ciphertexts, and their sum.
  const phe::PaillierKeyPair kp = phe::paillier_generate(256);
  phe::PaillierPrivateKey other;
  other.lambda = kp.priv.lambda;
  other.mu = kp.priv.mu;
  other.p = kp.priv.p;
  other.q = kp.priv.q;
  other.pub.n = kp.pub.n;
  other.init_fast_paths();
  ASSERT_TRUE(other.has_crt());
  const BigInt a = kp.priv.encrypt_i64(-1234);
  const BigInt b = other.encrypt_i64(5678);
  EXPECT_EQ(other.decrypt_i64(a), -1234);
  EXPECT_EQ(kp.priv.decrypt_i64(b), 5678);
  EXPECT_EQ(kp.priv.decrypt_i64(kp.pub.add(a, b)), 4444);
}

TEST(PaillierFixedBaseEncryptionTest, LegacyKeyWithoutFactorsUsesThePublicPath) {
  // A key persisted before p and q were kept: no CRT, but it still
  // encrypts (the public path), decrypts (lambda/mu) and runs a pool.
  const phe::PaillierKeyPair full = phe::paillier_generate(256);
  phe::PaillierPrivateKey legacy;
  legacy.lambda = full.priv.lambda;
  legacy.mu = full.priv.mu;
  legacy.pub.n = full.pub.n;
  legacy.init_fast_paths(/*pool_low_water=*/2);
  EXPECT_FALSE(legacy.has_crt());
  ASSERT_NE(legacy.pub.pool, nullptr);
  for (const std::int64_t m : {-777LL, 0LL, 31337LL}) {
    EXPECT_EQ(legacy.decrypt_i64(legacy.encrypt_i64(m)), m);
    EXPECT_EQ(full.priv.decrypt_i64(legacy.encrypt_i64(m)), m);
    EXPECT_EQ(legacy.decrypt_i64(full.priv.encrypt_i64(m)), m);
  }
}

TEST(PaillierFixedBaseEncryptionTest, KeyHolderPoolIsFilledByTheFixedBaseRoutine) {
  // The key holder's pool is filled by its fixed-base routine: at setup, on
  // the refill worker and on a miss. Every entry must be an n-th residue
  // mod n^2, i.e. an encryption of zero; a wrong recombination breaks that.
  phe::PaillierKeyPair kp = phe::paillier_generate(512);
  ASSERT_TRUE(kp.priv.has_crt());
  kp.priv.init_fast_paths(/*pool_low_water=*/4);
  const auto pool = kp.priv.pub.pool;
  ASSERT_NE(pool, nullptr);
  // The first four takes pop the prefilled entries, and the first pop
  // below the low-water mark starts a refill; takes that outrun it miss
  // and compute inline.
  std::vector<BigInt> factors;
  for (int i = 0; i < 12; ++i) factors.push_back(pool->take());
  // At rest a pool holds at least its low-water mark, now all refilled.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool->size() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(pool->size(), 4u);
  for (int i = 0; i < 4; ++i) factors.push_back(pool->take());
  EXPECT_EQ(pool->hits() + pool->misses(), 16u);
  for (const BigInt& f : factors) {
    EXPECT_EQ(kp.priv.decrypt(f), BigInt(0));
    EXPECT_EQ(kp.priv.decrypt_generic(f), BigInt(0));
  }
  // A re-init keeps the attached pool (idempotent).
  kp.priv.init_fast_paths(/*pool_low_water=*/4);
  EXPECT_EQ(kp.priv.pub.pool, pool);
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

TEST(SophosDifferential, CrtStepBackEqualsTheDExponent) {
  // The trapdoor permutation is deterministic: the CRT inverse must equal
  // st^d mod n byte for byte on any state, units or not, and the public
  // e-step must undo it.
  const Bytes key(32, 0x24);
  sse::SophosClient client(key, 512);
  const sse::SophosPublicParams params = client.public_params();
  const std::size_t len = params.element_len();
  for (int i = 0; i < 16; ++i) {
    const BigInt st = BigInt::random_below(params.n);
    const BigInt back = client.step_back(st);
    EXPECT_EQ(back.to_bytes(len), client.step_back_generic(st).to_bytes(len)) << i;
    EXPECT_EQ(back.pow_mod(params.e, params.n), st) << i;
  }
  for (const BigInt& st : {BigInt(0), BigInt(1), params.n - BigInt(1)}) {
    EXPECT_EQ(client.step_back(st), client.step_back_generic(st)) << st.to_decimal();
  }
}

// --- PrfKey --------------------------------------------------------------------

/// HMAC-SHA256 by its RFC 2104 definition, streamed through the portable
/// SHA-256: K0 is the key (hashed down when longer than a block) zero-padded
/// to 64 bytes, and the MAC is H((K0 ^ opad) || H((K0 ^ ipad) || msg)). It
/// shares none of HmacSha256's midstate code.
Bytes reference_hmac(BytesView key, BytesView msg) {
  const crypto::Sha256Kernels& portable = crypto::portable_sha256_kernels();
  Bytes k0(crypto::Sha256::kBlockSize, 0);
  if (key.size() > crypto::Sha256::kBlockSize) {
    const crypto::Sha256::Digest d = crypto::Sha256::digest(key, portable);
    std::copy(d.begin(), d.end(), k0.begin());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }
  Bytes ipad = k0;
  Bytes opad = k0;
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  crypto::Sha256 inner(portable);
  inner.update(ipad);
  inner.update(msg);
  const crypto::Sha256::Digest inner_digest = inner.finalize();
  crypto::Sha256 outer(portable);
  outer.update(opad);
  outer.update(inner_digest);
  const crypto::Sha256::Digest d = outer.finalize();
  return Bytes(d.begin(), d.end());
}

/// HKDF-expand (RFC 5869 §2.3) over reference_hmac.
Bytes reference_hkdf_expand(BytesView prk, BytesView info, std::size_t n) {
  Bytes out;
  Bytes t;
  for (std::uint8_t i = 1; out.size() < n; ++i) {
    Bytes input = t;
    append(input, info);
    input.push_back(i);
    t = reference_hmac(prk, input);
    append(out, t);
  }
  out.resize(n);
  return out;
}

TEST(PrfKeyDifferential, MatchesHmacDefinition) {
  // The hoisted midstates must give exactly HMAC-SHA256 by its definition,
  // at key lengths on both sides of the 64-byte block and message lengths
  // on both sides of the one-final-block limit (55 bytes after the pad).
  for (const std::size_t key_len : {1UL, 16UL, 32UL, 63UL, 64UL, 65UL, 200UL}) {
    const Bytes key = SecureRng::bytes(key_len);
    const crypto::PrfKey pk(key);
    for (const std::size_t msg_len : {0UL, 1UL, 55UL, 56UL, 64UL, 100UL}) {
      const Bytes msg = SecureRng::bytes(msg_len);
      const Bytes mac = reference_hmac(key, msg);
      EXPECT_EQ(crypto::HmacSha256::mac(key, msg), mac) << key_len << "/" << msg_len;
      EXPECT_EQ(pk.prf(msg), mac) << key_len << "/" << msg_len;
      Bytes labeled = to_bytes("label");
      labeled.push_back(0);
      append(labeled, msg);
      EXPECT_EQ(pk.prf_labeled("label", msg), reference_hmac(key, labeled));
      EXPECT_EQ(pk.prf_n(msg, 16), Bytes(mac.begin(), mac.begin() + 16));
      EXPECT_EQ(pk.prf_n(msg, 32), mac);
      EXPECT_EQ(pk.prf_n(msg, 100), reference_hkdf_expand(mac, to_bytes("prf_n"), 100));
      EXPECT_EQ(pk.prf_u64(msg), read_be64(mac));
      EXPECT_EQ(pk.prf_mod(msg, 97), read_be64(mac) % 97);
      EXPECT_EQ(crypto::prf_mod(key, msg, 97), read_be64(mac) % 97);
    }
  }
}

TEST(PrfKeyDifferential, CopiesAreIndependent) {
  const Bytes key = SecureRng::bytes(32);
  const crypto::PrfKey original(key);
  const crypto::PrfKey copy = original;
  const Bytes msg = SecureRng::bytes(40);
  EXPECT_EQ(copy.prf(msg), original.prf(msg));
  EXPECT_EQ(copy.prf(msg), reference_hmac(key, msg));
}

}  // namespace
}  // namespace datablinder
