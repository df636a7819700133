// Byte-buffer utilities shared by every DataBlinder module.
//
// All cryptographic and wire-level code in this library operates on
// `Bytes` (a contiguous, owned byte buffer) and `BytesView` (a non-owning
// span). Helpers here cover concatenation, XOR, constant-time comparison
// and conversions to/from std::string.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace datablinder {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Builds a Bytes buffer from a string's raw characters.
Bytes to_bytes(std::string_view s);

/// Interprets a byte buffer as a std::string (no encoding validation).
std::string to_string(BytesView b);

/// Concatenates any number of byte buffers into one.
Bytes concat(std::initializer_list<BytesView> parts);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// XORs `b` into `a` element-wise. Requires a.size() == b.size().
void xor_inplace(std::span<std::uint8_t> a, BytesView b);

/// Returns a ^ b. Requires equal sizes.
Bytes xor_bytes(BytesView a, BytesView b);

/// Constant-time equality check (length leak only), for MAC/tag comparison.
bool ct_equal(BytesView a, BytesView b) noexcept;

/// Unsigned lexicographic order, a proper prefix first: the order of
/// Bytes' own operator<. Ordered containers keyed by Bytes use it because
/// GCC 12 at -O3 misjudges the bound of the memcmp inside vector's
/// operator<=> and warns (-Wstringop-overread).
struct BytesLess {
  bool operator()(BytesView a, BytesView b) const noexcept {
    const std::size_t n = std::min(a.size(), b.size());
    // dblint:allow(ct-compare): orders container keys; never checks a secret
    const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    return c != 0 ? c < 0 : a.size() < b.size();
  }
};

/// Big-endian encoding of a 32-bit integer.
Bytes be32(std::uint32_t v);
/// Big-endian encoding of a 64-bit integer.
Bytes be64(std::uint64_t v);
/// Reads a big-endian 32-bit integer. Requires b.size() >= 4.
std::uint32_t read_be32(BytesView b);
/// Reads a big-endian 64-bit integer. Requires b.size() >= 8.
std::uint64_t read_be64(BytesView b);

/// Securely wipes a buffer (best-effort; prevents dead-store elimination).
void secure_wipe(std::span<std::uint8_t> b) noexcept;

}  // namespace datablinder
