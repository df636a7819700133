#include "crypto/prf.hpp"

#include "crypto/hkdf.hpp"

namespace datablinder::crypto {

PrfKey::Tag PrfKey::tag(BytesView input) const { return mac_.tag({input}); }

PrfKey::Tag PrfKey::tag_labeled(std::string_view label, BytesView input) const {
  const std::uint8_t sep = 0;
  return mac_.tag({{reinterpret_cast<const std::uint8_t*>(label.data()), label.size()},
                   {&sep, 1},
                   input});
}

void PrfKey::xor_pad(BytesView input, std::span<std::uint8_t> data) const {
  if (data.size() <= HmacSha256::kTagSize) {
    const Tag pad = tag(input);
    xor_inplace(data, BytesView(pad).first(data.size()));
  } else {
    xor_inplace(data, prf_n(input, data.size()));
  }
}

Bytes PrfKey::prf(BytesView input) const {
  const Tag t = tag(input);
  return Bytes(t.begin(), t.end());
}

Bytes PrfKey::prf_labeled(std::string_view label, BytesView input) const {
  const Tag t = tag_labeled(label, input);
  return Bytes(t.begin(), t.end());
}

Bytes PrfKey::prf_n(BytesView input, std::size_t n) const {
  if (n <= HmacSha256::kTagSize) {
    const Tag t = tag(input);
    return Bytes(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return hkdf_expand(prf(input), to_bytes("prf_n"), n);
}

std::uint64_t PrfKey::prf_u64(BytesView input) const { return read_be64(tag(input)); }

std::uint64_t PrfKey::prf_mod(BytesView input, std::uint64_t bound) const {
  return prf_u64(input) % bound;
}

std::uint64_t prf_mod(BytesView key, BytesView input, std::uint64_t bound) {
  return PrfKey(key).prf_mod(input, bound);
}

}  // namespace datablinder::crypto
