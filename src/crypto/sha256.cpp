#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace datablinder::crypto {

namespace {
inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

/// One FIPS 180-4 §6.2.2 block: the portable reference every kernel must
/// match.
void process_block(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

// Big-endian stores of whole words: with byte-at-a-time stores a hash
// measured ~30 ns slower on a SHA-NI host, likely because the kernel's
// 16-byte loads of the just-written block cannot forward from them.
void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// The last 8 bytes of a final block: the message length in bits.
void put_bit_length(std::uint8_t* block, std::uint64_t byte_len) {
  store_be64(block + Sha256::kBlockSize - 8, byte_len * 8);
}

Sha256::Digest to_digest(const std::array<std::uint32_t, 8>& state) {
  Sha256::Digest out;
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state[i]);
  return out;
}
}  // namespace

void portable::sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) process_block(state, blocks + i * Sha256::kBlockSize);
}

Sha256::Sha256(const Sha256Kernels& kernels) : kernels_(&kernels) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  // An empty view may carry a null pointer, which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, left);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    left -= take;
    if (buffer_len_ < kBlockSize) return;
    kernels_->compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (const std::size_t whole = left / kBlockSize; whole > 0) {
    kernels_->compress(state_.data(), p, whole);
    p += whole * kBlockSize;
    left -= whole * kBlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), p, left);
    buffer_len_ = left;
  }
}

Sha256::Digest Sha256::finalize() {
  // Padding in place: 0x80, zeros, then the 64-bit big-endian bit length
  // in the last 8 bytes — one block, or two when fewer than 9 bytes remain.
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_.data() + buffer_len_ + 1, 0, kBlockSize - buffer_len_ - 1);
  if (buffer_len_ >= kBlockSize - 8) {
    kernels_->compress(state_.data(), buffer_.data(), 1);
    buffer_.fill(0);
  }
  put_bit_length(buffer_.data(), total_len_);
  kernels_->compress(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;
  return to_digest(state_);
}

Sha256::Digest Sha256::digest_with(std::initializer_list<BytesView> parts) const {
  std::size_t n = 0;
  for (const BytesView part : parts) n += part.size();
  if (buffer_len_ + n > kBlockSize - 9) {  // needs more than one final block
    Sha256 h = *this;
    for (const BytesView part : parts) h.update(part);
    return h.finalize();
  }
  // Everything fits in the final block: build it on the stack in one pass
  // and compress a copy of the state, leaving this object untouched.
  std::array<std::uint8_t, kBlockSize> block{};
  std::memcpy(block.data(), buffer_.data(), buffer_len_);
  std::size_t at = buffer_len_;
  for (const BytesView part : parts) {
    if (!part.empty()) std::memcpy(block.data() + at, part.data(), part.size());
    at += part.size();
  }
  block[at] = 0x80;
  put_bit_length(block.data(), total_len_ + n);
  std::array<std::uint32_t, 8> state = state_;
  kernels_->compress(state.data(), block.data(), 1);
  return to_digest(state);
}

Sha256::Digest Sha256::digest(BytesView data, const Sha256Kernels& kernels) {
  Sha256 h(kernels);
  h.update(data);
  return h.finalize();
}

}  // namespace datablinder::crypto
