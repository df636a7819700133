#include "ppe/ope.hpp"

#include <array>

#include "common/status.hpp"

namespace datablinder::ppe {

namespace {
using U128 = unsigned __int128;

U128 to_u128(const Ope128& c) { return (static_cast<U128>(c.hi) << 64) | c.lo; }

Ope128 from_u128(U128 v) {
  return Ope128{static_cast<std::uint64_t>(v >> 64), static_cast<std::uint64_t>(v)};
}
}  // namespace

Bytes Ope128::to_bytes() const {
  Bytes out = be64(hi);
  append(out, be64(lo));
  return out;
}

Ope128 Ope128::from_bytes(BytesView b) {
  require(b.size() == 16, "Ope128::from_bytes: need 16 bytes");
  return Ope128{read_be64(b.first(8)), read_be64(b.subspan(8))};
}

OpeCipher::OpeCipher(BytesView key, std::string_view context)
    : key_(SecretBytes(crypto::PrfKey(key).prf_labeled("ope-key", to_bytes(context)))) {}

OpeCipher::OpeCipher(const SecretBytes& key, std::string_view context)
    : OpeCipher(key.expose_secret(), context) {}

Ope128 OpeCipher::encrypt(std::uint64_t plaintext) const {
  // Ciphertext interval [lo, hi) starts as the full 128-bit space.
  U128 lo = 0;
  U128 hi = static_cast<U128>(-1);  // 2^128 - 1; treat as exclusive-ish upper bound
  // Descend the plaintext bits MSB-first. Before consuming bit i there are
  // r = 64 - i bits left, so each half must keep room for 2^(r-1) leaves.
  std::array<std::uint8_t, 64> path{};  // bits walked so far, one byte each
  for (int i = 0; i < 64; ++i) {
    const int remaining = 64 - i;             // bits still to place (incl. this)
    const U128 min_half = static_cast<U128>(1) << (remaining - 1);
    const U128 span = hi - lo;
    // Split point s in [lo + min_half, hi - min_half]; the PRF picks the
    // offset within that window deterministically from the path walked.
    const U128 window = span - 2 * min_half + 1;
    const crypto::PrfKey::Tag tag =
        key_.tag_labeled("ope-split", BytesView(path.data(), static_cast<std::size_t>(i)));
    // Derive a 128-bit pseudorandom value from the 32-byte PRF output.
    U128 rnd = 0;
    for (int b = 0; b < 16; ++b) rnd = (rnd << 8) | tag[static_cast<std::size_t>(b)];
    const U128 s = lo + min_half + (window == 0 ? 0 : rnd % window);

    const bool bit = (plaintext >> (63 - i)) & 1;
    if (bit) {
      lo = s;
    } else {
      hi = s;
    }
    path[static_cast<std::size_t>(i)] = bit ? 1 : 0;
  }
  return from_u128(lo);
}

std::uint64_t OpeCipher::decrypt(const Ope128& ciphertext) const {
  const U128 target = to_u128(ciphertext);
  std::uint64_t lo = 0;
  std::uint64_t hi = UINT64_MAX;
  // encrypt() is monotone, so binary search recovers the unique preimage.
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (to_u128(encrypt(mid)) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (to_u128(encrypt(lo)) != target) {
    throw_error(ErrorCode::kCryptoFailure, "OpeCipher::decrypt: not a valid ciphertext");
  }
  return lo;
}

}  // namespace datablinder::ppe
