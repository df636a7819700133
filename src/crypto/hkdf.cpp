#include "crypto/hkdf.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "crypto/hmac.hpp"

namespace datablinder::crypto {

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  if (salt.empty()) {
    const Bytes zero(HmacSha256::kTagSize, 0);
    return HmacSha256::mac(zero, ikm);
  }
  return HmacSha256::mac(salt, ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  require(length <= 255 * HmacSha256::kTagSize, "hkdf_expand: length too large");
  const HmacSha256 mac(prk);  // one key schedule for every T(i)
  Bytes out;
  out.reserve(length);
  HmacSha256::Tag t{};
  std::size_t t_len = 0;  // T(0) is empty
  std::uint8_t counter = 1;
  while (out.size() < length) {
    t = mac.tag({BytesView(t.data(), t_len), info, {&counter, 1}});
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
    ++counter;
  }
  secure_wipe(t);  // T(i) blocks are key material: no residue
  return out;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  Bytes prk = hkdf_extract(salt, ikm);
  Bytes out = hkdf_expand(prk, info, length);
  secure_wipe(prk);  // the PRK is a derived secret; wipe the scratch copy
  return out;
}

}  // namespace datablinder::crypto
