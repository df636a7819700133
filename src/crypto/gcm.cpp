#include "crypto/gcm.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/ctr.hpp"

namespace datablinder::crypto {

namespace {

struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

U128 load128(const std::uint8_t* p) {
  U128 v;
  for (int i = 0; i < 8; ++i) v.hi = (v.hi << 8) | p[i];
  for (int i = 8; i < 16; ++i) v.lo = (v.lo << 8) | p[i];
  return v;
}

void store128(const U128& v, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v.hi >> (8 * (7 - i)));
  for (int i = 0; i < 8; ++i) p[8 + i] = static_cast<std::uint8_t>(v.lo >> (8 * (7 - i)));
}

// GF(2^128) multiplication per SP 800-38D, bitwise (right-shift) variant.
// Branch-free: each step selects with an all-ones/all-zeros mask, so the
// instruction sequence does not depend on bits of H or of the data.
U128 gf_mul(const U128& x, const U128& y) {
  U128 z;             // accumulator
  U128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    const std::uint64_t take = 0 - bit;
    z.hi ^= v.hi & take;
    z.lo ^= v.lo & take;
    const std::uint64_t reduce = 0 - (v.lo & 1);
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi = (v.hi >> 1) ^ (0xe100000000000000ULL & reduce);  // reduction polynomial R
  }
  return z;
}

std::array<std::uint8_t, 16> initial_counter(BytesView nonce) {
  // J0 = nonce || 0^31 || 1 for 96-bit nonces.
  std::array<std::uint8_t, 16> j0{};
  std::memcpy(j0.data(), nonce.data(), AesGcm::kNonceSize);
  j0[15] = 1;
  return j0;
}

std::array<std::uint8_t, 16> first_data_counter(std::array<std::uint8_t, 16> j0) {
  j0[15] = 2;  // CTR starts at inc32(J0)
  return j0;
}

}  // namespace

void portable::ghash(const std::uint8_t h[16], std::uint8_t y[16], const std::uint8_t* data,
                     std::size_t len) {
  const U128 hv = load128(h);
  U128 acc = load128(y);
  for (std::size_t offset = 0; offset < len; offset += 16) {
    std::uint8_t block[16] = {0};
    std::memcpy(block, data + offset, std::min<std::size_t>(16, len - offset));
    const U128 b = load128(block);
    acc.hi ^= b.hi;
    acc.lo ^= b.lo;
    acc = gf_mul(acc, hv);
  }
  store128(acc, y);
}

AesGcm::AesGcm(BytesView key) : AesGcm(key, active_aes_kernels()) {}

AesGcm::AesGcm(const SecretBytes& key) : AesGcm(key.expose_secret()) {}

AesGcm::AesGcm(BytesView key, const AesKernels& kernels) : aes_(key, kernels) {
  aes_.encrypt_block(h_.data());
}

void AesGcm::compute_tag(const std::array<std::uint8_t, 16>& j0, BytesView aad,
                         BytesView ciphertext, std::uint8_t tag[kTagSize]) const {
  const AesKernels& k = aes_.kernels();
  std::uint8_t y[16] = {0};
  k.ghash(h_.data(), y, aad.data(), aad.size());
  k.ghash(h_.data(), y, ciphertext.data(), ciphertext.size());
  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  std::uint8_t len_block[16];
  store128({static_cast<std::uint64_t>(aad.size()) * 8,
            static_cast<std::uint64_t>(ciphertext.size()) * 8},
           len_block);
  k.ghash(h_.data(), y, len_block, sizeof(len_block));

  std::memcpy(tag, j0.data(), kTagSize);
  aes_.encrypt_block(tag);
  for (std::size_t i = 0; i < kTagSize; ++i) tag[i] ^= y[i];
}

Bytes AesGcm::seal(BytesView nonce, BytesView plaintext, BytesView aad) const {
  require(nonce.size() == kNonceSize, "AesGcm: nonce must be 12 bytes");
  const auto j0 = initial_counter(nonce);
  Bytes out(plaintext.size() + kTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  const std::span<std::uint8_t> ciphertext(out.data(), plaintext.size());
  aes_.ctr_xcrypt(first_data_counter(j0), ciphertext);
  compute_tag(j0, aad, ciphertext, out.data() + plaintext.size());
  return out;
}

Bytes AesGcm::seal_random_nonce(BytesView plaintext, BytesView aad) const {
  Bytes nonce = SecureRng::bytes(kNonceSize);
  Bytes sealed = seal(nonce, plaintext, aad);
  Bytes out;
  out.reserve(nonce.size() + sealed.size());
  append(out, nonce);
  append(out, sealed);
  return out;
}

std::optional<Bytes> AesGcm::open(BytesView nonce, BytesView sealed, BytesView aad) const {
  if (nonce.size() != kNonceSize || sealed.size() < kTagSize) return std::nullopt;
  const BytesView ciphertext = sealed.first(sealed.size() - kTagSize);
  const BytesView tag = sealed.last(kTagSize);
  const auto j0 = initial_counter(nonce);

  std::uint8_t expected[kTagSize];
  compute_tag(j0, aad, ciphertext, expected);
  if (!ct_equal(BytesView(expected, kTagSize), tag)) return std::nullopt;
  return aes_ctr(aes_, first_data_counter(j0), ciphertext);
}

std::optional<Bytes> AesGcm::open_with_nonce(BytesView sealed, BytesView aad) const {
  if (sealed.size() < kNonceSize + kTagSize) return std::nullopt;
  return open(sealed.first(kNonceSize), sealed.subspan(kNonceSize), aad);
}

}  // namespace datablinder::crypto
