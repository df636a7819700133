#include "common/hex.hpp"

#include <stdexcept>

namespace datablinder {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string hex_encode(BytesView b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

Bytes hex_decode(std::string_view s) {
  if (s.size() % 2 != 0) throw std::invalid_argument("hex_decode: odd length");
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = hex_val(s[i]);
    const int lo = hex_val(s[i + 1]);
    if (hi < 0 || lo < 0) throw std::invalid_argument("hex_decode: bad digit");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace datablinder
