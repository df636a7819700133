#include "common/bytes.hpp"

#include <cassert>
#include <cstring>

namespace datablinder {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void xor_inplace(std::span<std::uint8_t> a, BytesView b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

bool ct_equal(BytesView a, BytesView b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

Bytes be32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

Bytes be64(std::uint64_t v) {
  Bytes out(8);
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  return out;
}

std::uint32_t read_be32(BytesView b) {
  assert(b.size() >= 4);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | static_cast<std::uint32_t>(b[3]);
}

std::uint64_t read_be64(BytesView b) {
  assert(b.size() >= 8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

void secure_wipe(std::span<std::uint8_t> b) noexcept {
  volatile std::uint8_t* p = b.data();
  for (std::size_t i = 0; i < b.size(); ++i) p[i] = 0;
}

}  // namespace datablinder
