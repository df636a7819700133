#include "crypto/siv.hpp"

#include <cstring>

#include "common/status.hpp"
#include "crypto/ctr.hpp"

namespace datablinder::crypto {

namespace {
BytesView checked_siv_key(BytesView key) {
  require(key.size() == 32, "AesSiv: key must be 32 bytes");
  return key;
}
}  // namespace

AesSiv::AesSiv(BytesView key)
    : mac_(checked_siv_key(key).first(16)), aes_(key.subspan(16)) {}

AesSiv::AesSiv(const SecretBytes& key) : AesSiv(key.expose_secret()) {}

Bytes AesSiv::compute_siv(BytesView plaintext, BytesView aad) const {
  // S2V simplified: HMAC over len(aad) || aad || plaintext, truncated to 16B.
  const HmacSha256::Tag tag = mac_.tag({be64(aad.size()), aad, plaintext});
  return Bytes(tag.begin(), tag.begin() + kIvSize);
}

Bytes AesSiv::seal(BytesView plaintext, BytesView aad) const {
  const Bytes siv = compute_siv(plaintext, aad);

  std::array<std::uint8_t, Aes::kBlockSize> counter{};
  std::memcpy(counter.data(), siv.data(), kIvSize);
  // Clear the top bits of the last two 32-bit words as RFC 5297 does, so the
  // CTR increments never overflow into the authenticated part.
  counter[8] &= 0x7f;
  counter[12] &= 0x7f;

  Bytes out = siv;
  append(out, aes_ctr(aes_, counter, plaintext));
  return out;
}

std::optional<Bytes> AesSiv::open(BytesView sealed, BytesView aad) const {
  if (sealed.size() < kIvSize) return std::nullopt;
  const BytesView siv = sealed.first(kIvSize);
  const BytesView ciphertext = sealed.subspan(kIvSize);

  std::array<std::uint8_t, Aes::kBlockSize> counter{};
  std::memcpy(counter.data(), siv.data(), kIvSize);
  counter[8] &= 0x7f;
  counter[12] &= 0x7f;

  Bytes plaintext = aes_ctr(aes_, counter, ciphertext);

  if (!ct_equal(compute_siv(plaintext, aad), siv)) return std::nullopt;
  return plaintext;
}

}  // namespace datablinder::crypto
