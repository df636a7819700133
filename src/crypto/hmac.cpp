#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace datablinder::crypto {

HmacSha256::HmacSha256(BytesView key) {
  // K0: the key, hashed down when longer than a block, zero-padded.
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > Sha256::kBlockSize) {
    Sha256 h;
    h.update(key);
    Sha256::Digest digest = h.finalize();
    std::copy(digest.begin(), digest.end(), block.begin());
    secure_wipe(digest);
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (auto& b : block) b ^= 0x36;
  inner_mid_.update(block);
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  outer_mid_.update(block);
  secure_wipe(block);  // transient key copy leaves no residue
}

HmacSha256::HmacSha256(const SecretBytes& key) : HmacSha256(key.expose_secret()) {}

HmacSha256::~HmacSha256() {
  // reset() reloads the IV constants, clearing the key-derived states.
  inner_mid_.reset();
  outer_mid_.reset();
}

HmacSha256::Tag HmacSha256::tag(std::initializer_list<BytesView> parts) const {
  const Sha256::Digest inner = inner_mid_.digest_with(parts);
  return outer_mid_.digest_with({inner});
}

Bytes HmacSha256::mac(BytesView key, BytesView data) {
  const Tag t = HmacSha256(key).tag({data});
  return Bytes(t.begin(), t.end());
}

bool HmacSha256::verify(BytesView key, BytesView data, BytesView tag) {
  return ct_equal(mac(key, data), tag);
}

}  // namespace datablinder::crypto
