// Known-answer and behavioural tests for the crypto substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/status.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_kernels.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/siv.hpp"

namespace datablinder::crypto {
namespace {

/// The portable kernel, plus the SHA-NI one where the CPU has it.
std::vector<const Sha256Kernels*> sha256_kernel_tables() {
  std::vector<const Sha256Kernels*> out{&portable_sha256_kernels()};
  if (const Sha256Kernels* hw = hardware_sha256_kernels()) out.push_back(hw);
  return out;
}

TEST(Sha256Test, Fips180KnownAnswers) {
  for (const Sha256Kernels* k : sha256_kernel_tables()) {
    EXPECT_EQ(hex_encode(Sha256::digest(to_bytes("abc"), *k)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex_encode(Sha256::digest({}, *k)),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    // 448 bits: the padding needs a second block.
    EXPECT_EQ(hex_encode(Sha256::digest(
                  to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"), *k)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // 896 bits.
    EXPECT_EQ(hex_encode(Sha256::digest(
                  to_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                           "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
                  *k)),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  }
}

TEST(Sha256Test, MillionAs) {
  for (const Sha256Kernels* k : sha256_kernel_tables()) {
    Sha256 h(*k);
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_encode(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes data = DetRng(1).bytes(10000);
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 5000u, 9999u}) {
    Sha256 h;
    h.update(BytesView(data).first(split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(data)) << "split=" << split;
  }
}

TEST(Sha256Test, DigestWithMatchesUpdateAndLeavesStateAlone) {
  // Both the one-block stack path and the general path, on both tables.
  const Bytes data = DetRng(3).bytes(300);
  for (const Sha256Kernels* k : sha256_kernel_tables()) {
    for (const std::size_t prefix : {0UL, 10UL, 64UL, 70UL}) {
      Sha256 mid(*k);
      mid.update(BytesView(data).first(prefix));
      for (std::size_t len = 0; len <= 80; ++len) {
        const BytesView a = BytesView(data).subspan(prefix, len / 2);
        const BytesView b = BytesView(data).subspan(prefix + len / 2, len - len / 2);
        Sha256 copy = mid;
        copy.update(a);
        copy.update(b);
        EXPECT_EQ(mid.digest_with({a, b}), copy.finalize())
            << "prefix=" << prefix << " len=" << len;
      }
      Sha256 whole(*k);
      whole.update(BytesView(data).first(prefix));
      EXPECT_EQ(mid.finalize(), whole.finalize()) << "prefix=" << prefix;
    }
  }
}

TEST(HmacTest, Rfc4231Vectors) {
  // Test case 1.
  EXPECT_EQ(hex_encode(HmacSha256::mac(Bytes(20, 0x0b), to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2.
  EXPECT_EQ(hex_encode(HmacSha256::mac(to_bytes("Jefe"),
                                       to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 3: 50 bytes of data.
  EXPECT_EQ(hex_encode(HmacSha256::mac(Bytes(20, 0xaa), Bytes(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  // Test case 4: 25-byte key 0x01..0x19.
  Bytes key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(hex_encode(HmacSha256::mac(key4, Bytes(50, 0xcd))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
  // Test case 5: output truncated to 128 bits.
  EXPECT_EQ(hex_encode(HmacSha256::mac(Bytes(20, 0x0c), to_bytes("Test With Truncation")))
                .substr(0, 32),
            "a3b6167473100ee06e0c796c2955552b");
  // Test case 6: key larger than block size.
  EXPECT_EQ(hex_encode(HmacSha256::mac(
                Bytes(131, 0xaa),
                to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  // Test case 7: key and data both larger than a block.
  EXPECT_EQ(hex_encode(HmacSha256::mac(
                Bytes(131, 0xaa),
                to_bytes("This is a test using a larger than block-size key and a larger "
                         "than block-size data. The key needs to be hashed before being "
                         "used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, VerifyRejectsWrongTag) {
  const Bytes key = to_bytes("k");
  const Bytes msg = to_bytes("m");
  Bytes tag = HmacSha256::mac(key, msg);
  EXPECT_TRUE(HmacSha256::verify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha256::verify(key, msg, tag));
}

TEST(HkdfTest, Rfc5869TestCase1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(AesTest, Fips197KnownAnswers) {
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  struct Case {
    const char* key;
    const char* ct;
  };
  const Case cases[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  // The default (dispatched) kernels and the portable reference both.
  for (const AesKernels* kernels : {&active_aes_kernels(), &portable_aes_kernels()}) {
    for (const auto& c : cases) {
      Aes aes(hex_decode(c.key), *kernels);
      std::uint8_t block[16];
      std::copy(pt.begin(), pt.end(), block);
      aes.encrypt_block(block);
      EXPECT_EQ(hex_encode(Bytes(block, block + 16)), c.ct);
    }
  }
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), Error);
  EXPECT_THROW(Aes(Bytes(33, 0)), Error);
  EXPECT_THROW(Aes(Bytes{}), Error);
}

TEST(CtrTest, RoundTripAndSeekConsistency) {
  const Aes aes(Bytes(16, 0x42));
  std::array<std::uint8_t, 16> counter{};
  const Bytes pt = DetRng(7).bytes(1000);
  Bytes ct = aes_ctr(aes, counter, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes_ctr(aes, counter, ct), pt);
}

TEST(GcmTest, NistCaseWithAad) {
  AesGcm g(hex_decode("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = hex_decode("cafebabefacedbaddecaf888");
  const Bytes pt = hex_decode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hex_decode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes sealed = g.seal(iv, pt, aad);
  EXPECT_EQ(hex_encode(Bytes(sealed.begin(), sealed.end() - 16)),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex_encode(Bytes(sealed.end() - 16, sealed.end())),
            "5bc94fbc3221a5db94fae95ae7121a47");
  const auto opened = g.open(iv, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, EmptyPlaintextKnownTag) {
  AesGcm g(Bytes(16, 0));
  const Bytes iv(12, 0);
  const Bytes sealed = g.seal(iv, {});
  EXPECT_EQ(hex_encode(sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, TamperDetection) {
  AesGcm g(Bytes(32, 9));
  Bytes sealed = g.seal_random_nonce(to_bytes("secret"), to_bytes("ctx"));
  EXPECT_TRUE(g.open_with_nonce(sealed, to_bytes("ctx")).has_value());
  // Wrong AAD.
  EXPECT_FALSE(g.open_with_nonce(sealed, to_bytes("other")).has_value());
  // Flipped ciphertext bit.
  sealed[14] ^= 1;
  EXPECT_FALSE(g.open_with_nonce(sealed, to_bytes("ctx")).has_value());
}

TEST(GcmTest, RandomNoncesDiffer) {
  AesGcm g(Bytes(16, 1));
  const Bytes a = g.seal_random_nonce(to_bytes("x"));
  const Bytes b = g.seal_random_nonce(to_bytes("x"));
  EXPECT_NE(a, b);  // probabilistic encryption
}

// --- hardware vs portable kernels --------------------------------------------
// The AES-NI/PCLMULQDQ kernels must reproduce the portable reference byte
// for byte; these run only where the CPU has both extensions.

TEST(AesKernelDiffTest, BlockMatchesPortable) {
  const AesKernels* hw = hardware_aes_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks aes or pclmul";
  DetRng rng(11);
  for (std::size_t key_size : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(key_size);
    const Aes fast(key, *hw);
    const Aes ref(key, portable_aes_kernels());
    for (int i = 0; i < 64; ++i) {
      const Bytes in = rng.bytes(16);
      std::uint8_t a[16], b[16];
      std::copy(in.begin(), in.end(), a);
      std::copy(in.begin(), in.end(), b);
      fast.encrypt_block(a);
      ref.encrypt_block(b);
      EXPECT_EQ(Bytes(a, a + 16), Bytes(b, b + 16)) << "key_size=" << key_size;
    }
  }
}

TEST(AesKernelDiffTest, CtrCounterCarryMatchesPortable) {
  const AesKernels* hw = hardware_aes_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks aes or pclmul";
  DetRng rng(12);
  // Counters whose increments carry across byte 15->14, across the 64-bit
  // halves (byte 8->7), and wrap the whole 128 bits; lengths reach past the
  // 8-block batch so the carry lands inside a batch and in the tail.
  const char* counters[] = {
      "000000000000000000000000000000fe", "000000000000000000000000fffffffa",
      "00000000000000fffffffffffffffffc", "fffffffffffffffffffffffffffffffd",
      "0123456789abcdef0123456789abcdef"};
  for (std::size_t key_size : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(key_size);
    const Aes fast(key, *hw);
    const Aes ref(key, portable_aes_kernels());
    for (const char* hex : counters) {
      std::array<std::uint8_t, 16> counter{};
      const Bytes c = hex_decode(hex);
      std::copy(c.begin(), c.end(), counter.begin());
      for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 127u, 128u, 129u, 200u, 300u, 1100u}) {
        const Bytes data = rng.bytes(len);
        EXPECT_EQ(aes_ctr(fast, counter, data), aes_ctr(ref, counter, data))
            << "key_size=" << key_size << " counter=" << hex << " len=" << len;
      }
    }
  }
}

TEST(AesKernelDiffTest, GhashMatchesPortable) {
  const AesKernels* hw = hardware_aes_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks aes or pclmul";
  DetRng rng(13);
  for (std::size_t len = 0; len <= 100; ++len) {
    const Bytes h = rng.bytes(16);
    const Bytes y0 = rng.bytes(16);
    const Bytes data = rng.bytes(len);
    std::uint8_t a[16], b[16];
    std::copy(y0.begin(), y0.end(), a);
    std::copy(y0.begin(), y0.end(), b);
    hw->ghash(h.data(), a, data.data(), data.size());
    portable_aes_kernels().ghash(h.data(), b, data.data(), data.size());
    EXPECT_EQ(Bytes(a, a + 16), Bytes(b, b + 16)) << "len=" << len;
  }
}

TEST(AesKernelDiffTest, GcmSealOpenMatchPortable) {
  const AesKernels* hw = hardware_aes_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks aes or pclmul";
  DetRng rng(14);
  for (std::size_t key_size : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(key_size);
    const AesGcm fast(key, *hw);
    const AesGcm ref(key, portable_aes_kernels());
    for (std::size_t len = 0; len <= 1100; ++len) {
      const Bytes nonce = rng.bytes(AesGcm::kNonceSize);
      const Bytes pt = rng.bytes(len);
      const Bytes aad = rng.bytes(len % 41);  // 0..40 bytes
      const Bytes sealed = fast.seal(nonce, pt, aad);
      ASSERT_EQ(sealed, ref.seal(nonce, pt, aad))
          << "key_size=" << key_size << " len=" << len << " aad=" << aad.size();
      const auto opened = ref.open(nonce, sealed, aad);
      ASSERT_TRUE(opened.has_value()) << "len=" << len;
      EXPECT_EQ(*opened, pt);
      if (len % 97 != 0) continue;  // the rejection paths on a sample
      Bytes bad_tag = sealed;
      bad_tag.back() ^= 0x80;
      EXPECT_FALSE(fast.open(nonce, bad_tag, aad).has_value()) << "len=" << len;
      EXPECT_FALSE(ref.open(nonce, bad_tag, aad).has_value()) << "len=" << len;
      Bytes wrong_aad = aad;
      wrong_aad.push_back(0x01);
      EXPECT_FALSE(fast.open(nonce, sealed, wrong_aad).has_value()) << "len=" << len;
      EXPECT_FALSE(ref.open(nonce, sealed, wrong_aad).has_value()) << "len=" << len;
    }
  }
}

// --- SHA-NI vs portable compression --------------------------------------------
// The SHA-NI kernel must reproduce the portable reference state for state;
// these run only where the CPU has the SHA extensions.

TEST(Sha256KernelDiffTest, DigestsMatchPortableForEveryLengthUpTo300) {
  const Sha256Kernels* hw = hardware_sha256_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions (or SSE4.1/SSSE3)";
  const Bytes data = DetRng(21).bytes(320);
  for (std::size_t len = 0; len <= 300; ++len) {
    // Start at len % 16 so the kernel's loads see every alignment.
    const BytesView msg = BytesView(data).subspan(len % 16, len);
    EXPECT_EQ(Sha256::digest(msg, *hw), Sha256::digest(msg, portable_sha256_kernels()))
        << "len=" << len;
  }
}

TEST(Sha256KernelDiffTest, CompressMatchesPortableFromRandomStates) {
  const Sha256Kernels* hw = hardware_sha256_kernels();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions (or SSE4.1/SSSE3)";
  DetRng rng(22);
  for (std::size_t trial = 0; trial < 64; ++trial) {
    std::uint32_t fast[8], ref[8];
    for (std::size_t i = 0; i < 8; ++i) {
      fast[i] = ref[i] = static_cast<std::uint32_t>(rng.engine()());
    }
    const std::size_t n = 1 + trial % 8;
    const Bytes blocks = rng.bytes(64 * n + 1);
    hw->compress(fast, blocks.data() + 1, n);  // odd offset: unaligned loads
    portable_sha256_kernels().compress(ref, blocks.data() + 1, n);
    EXPECT_TRUE(std::equal(fast, fast + 8, ref)) << "trial=" << trial << " blocks=" << n;
  }
}

TEST(Sha256KernelDiffTest, ActiveTableIsPortable) {
  EXPECT_EQ(&active_sha256_kernels(), &portable_sha256_kernels());
}

TEST(SivTest, DeterministicAndAuthenticated) {
  AesSiv siv(Bytes(32, 7));
  const Bytes c1 = siv.seal(to_bytes("hello"), to_bytes("aad"));
  const Bytes c2 = siv.seal(to_bytes("hello"), to_bytes("aad"));
  EXPECT_EQ(c1, c2);  // deterministic
  EXPECT_NE(c1, siv.seal(to_bytes("hello"), to_bytes("other-aad")));
  EXPECT_NE(c1, siv.seal(to_bytes("hellp"), to_bytes("aad")));

  const auto opened = siv.open(c1, to_bytes("aad"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), "hello");
  EXPECT_FALSE(siv.open(c1, to_bytes("wrong")).has_value());

  Bytes tampered = c1;
  tampered[20] ^= 1;
  EXPECT_FALSE(siv.open(tampered, to_bytes("aad")).has_value());
}

TEST(SivTest, KeySeparation) {
  AesSiv a(Bytes(32, 1));
  AesSiv b(Bytes(32, 2));
  EXPECT_NE(a.seal(to_bytes("v")), b.seal(to_bytes("v")));
  EXPECT_FALSE(b.open(a.seal(to_bytes("v"))).has_value());
}

TEST(PrfTest, LabelsSeparateDomains) {
  const PrfKey key(Bytes(32, 3));
  EXPECT_NE(key.prf_labeled("a", to_bytes("x")), key.prf_labeled("b", to_bytes("x")));
  // label||input ambiguity is broken by the separator byte.
  EXPECT_NE(key.prf_labeled("ab", to_bytes("c")), key.prf_labeled("a", to_bytes("bc")));
}

TEST(PrfTest, PrfNExtendsDeterministically) {
  const PrfKey key(Bytes(32, 5));
  const Bytes long1 = key.prf_n(to_bytes("in"), 100);
  const Bytes long2 = key.prf_n(to_bytes("in"), 100);
  EXPECT_EQ(long1, long2);
  EXPECT_EQ(long1.size(), 100u);
  const Bytes short1 = key.prf_n(to_bytes("in"), 8);
  EXPECT_EQ(short1.size(), 8u);
}

Bytes counting(std::size_t n, std::uint8_t start, std::uint8_t step) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(start + i * step);
  return b;
}

TEST(PrfTest, KnownAnswers) {
  // Recorded from the portable-SHA-256, per-call-HMAC build; every value is
  // also plain HMAC-SHA256 (RFC 2104) over the stated input.
  struct Case {
    Bytes key;
    Bytes input;
    const char* prf;          // HMAC(key, input)
    const char* labeled;      // HMAC(key, "lbl" || 0x00 || input)
    std::uint64_t u64;        // first 8 bytes of prf, big-endian
    std::uint64_t free_mod3;  // prf_mod(key, input, 3), one-shot form
  };
  const Case cases[] = {
      {counting(32, 0x00, 1), Bytes{},
       "d38b42096d80f45f826b44a9d5607de72496a415d3f4a1a8c88e3bb9da8dc1cb",
       "ab36264be67f5c1bcccf0120bd902e08d9f7fb5ac16e044c86d532e625dde540",
       15243349972024882271ULL, 2},
      {counting(32, 0x00, 1), to_bytes("abc"),
       "f0133729c4163dede81e21cd47839256da58171238c8a0d874397c73b14e1e47",
       "47e66fe224cc1efb6de6bab15b48a0e17491470cd3a5e3c6af61e235d2056bc0",
       17299231246183185901ULL, 1},
      {counting(32, 0x00, 1), counting(100, 0x00, 7),
       "d749a5cfb47349640e1747a58a9c1af59beefbeec73ad2b064a9f73979c7cf5a",
       "0b88c3beea3c18a6076ff04e8352468245778e2e0fbdb1a262e9b3830bc43ca7",
       15513112702958651748ULL, 0},
      {counting(100, 0x30, 3), Bytes{},
       "8bfafa7f45459937f12a84abe6b8a60b30b2bbf0c989890cc7c299c19f4320d7",
       "a6d0243935c7565032bb5f5cc0c1d4a1bb4d5b150dceea292c91987fa8dd0f63",
       10086649739979626807ULL, 2},
      {counting(100, 0x30, 3), to_bytes("abc"),
       "4134b09c1742b0fda30f52b48f7805c57a92c14d33bf1f540e490fa65f0107fc",
       "507a1667ad693da2845a5a76c0bdd7c1f91fc667414ad36a5a13dbf821621360",
       4698574495705903357ULL, 1},
      {counting(100, 0x30, 3), counting(100, 0x00, 7),
       "00fa5493315e64571717c4dbab182f903c3b5ac984e91408e37369a47f2e44b2",
       "95d999ac5304e0b7f9d852c61293fcd86ba0601a6e4788bfd68a1fc645e10711",
       70461735342859351ULL, 1},
  };
  for (const Case& c : cases) {
    const PrfKey key(c.key);
    const std::string where = std::to_string(c.key.size()) + "/" + std::to_string(c.input.size());
    EXPECT_EQ(hex_encode(key.prf(c.input)), c.prf) << where;
    EXPECT_EQ(hex_encode(key.tag(c.input)), c.prf) << where;
    EXPECT_EQ(hex_encode(key.prf_labeled("lbl", c.input)), c.labeled) << where;
    EXPECT_EQ(hex_encode(key.tag_labeled("lbl", c.input)), c.labeled) << where;
    EXPECT_EQ(hex_encode(key.prf_n(c.input, 16)), std::string(c.prf, 32)) << where;
    EXPECT_EQ(key.prf_u64(c.input), c.u64) << where;
    EXPECT_EQ(key.prf_mod(c.input, 97), c.u64 % 97) << where;
    EXPECT_EQ(prf_mod(c.key, c.input, 3), c.free_mod3) << where;
  }
  // Past 32 bytes prf_n is HKDF-expand(prf, "prf_n").
  EXPECT_EQ(hex_encode(PrfKey(counting(32, 0x00, 1)).prf_n(to_bytes("abc"), 100)),
            "c27fb3503341114417c763ca4b991a2feea6474255110c9332"
            "64707bf96804db7c48223dd5d6fcd900a23b0976a9cec3314d"
            "92b984b325fbf2d721473f2a6054b71053c681605dcac7eb1f"
            "e0c5f94424791fadbd0b94f9711d0ca509186f00ea7566096d");
}

TEST(PrfTest, XorPadMatchesPrfN) {
  const PrfKey key(Bytes(32, 9));
  for (const std::size_t len : {0UL, 1UL, 17UL, 32UL, 33UL, 100UL}) {
    Bytes data = DetRng(len).bytes(len);
    Bytes expected = data;
    xor_inplace(expected, key.prf_n(to_bytes("pad"), len));
    key.xor_pad(to_bytes("pad"), data);
    EXPECT_EQ(data, expected) << "len=" << len;
  }
}

TEST(RngTest, SecureRngProducesDistinctValues) {
  EXPECT_NE(SecureRng::bytes(32), SecureRng::bytes(32));
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(SecureRng::uniform(17), 17u);
  }
}

TEST(RngTest, DetRngIsDeterministic) {
  DetRng a(99), b(99);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(1000), b.uniform(1000));
}

}  // namespace
}  // namespace datablinder::crypto
