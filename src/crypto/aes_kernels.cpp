// Kernel tables and the AES-NI + PCLMULQDQ kernels.
//
// The hardware kernels are compiled with a per-function target attribute,
// not a global -maes, so the library still runs on CPUs without AES-NI:
// only `active_aes_kernels()` decides, after CPUID says both extensions are
// present, whether they are ever called. Every helper they inline carries
// the same attribute (GCC refuses to inline across differing targets).
//
// Neither kernel branches or indexes memory on key or data bits: AESENC is
// a fixed-latency instruction and GHASH is four carry-less multiplies and
// a shift/XOR reduction.
#include "crypto/aes_kernels.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define DATABLINDER_AES_HW_TARGET __attribute__((target("aes,pclmul,ssse3")))
#endif

namespace datablinder::crypto {

namespace {

#if defined(__x86_64__)

DATABLINDER_AES_HW_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

DATABLINDER_AES_HW_TARGET inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

DATABLINDER_AES_HW_TARGET inline __m128i encrypt(__m128i b, const std::uint8_t* round_keys,
                                                 std::size_t rounds) {
  b = _mm_xor_si128(b, load(round_keys));
  for (std::size_t r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, load(round_keys + 16 * r));
  return _mm_aesenclast_si128(b, load(round_keys + 16 * rounds));
}

DATABLINDER_AES_HW_TARGET void hw_encrypt_block(const std::uint8_t* round_keys,
                                                std::size_t rounds, std::uint8_t block[16]) {
  store(block, encrypt(load(block), round_keys, rounds));
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// The counter block for (hi, lo), then advances the 128-bit counter.
DATABLINDER_AES_HW_TARGET inline __m128i next_counter(std::uint64_t& hi, std::uint64_t& lo) {
  // Bytes 0-7 of the block are `hi` big-endian, bytes 8-15 are `lo`.
  const __m128i block = _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                       static_cast<long long>(__builtin_bswap64(hi)));
  if (++lo == 0) ++hi;
  return block;
}

DATABLINDER_AES_HW_TARGET void hw_ctr_xcrypt(const std::uint8_t* round_keys,
                                             std::size_t rounds,
                                             const std::uint8_t counter0[16],
                                             std::uint8_t* data, std::size_t len) {
  constexpr std::size_t kLanes = 8;  // blocks in flight: hides AESENC latency
  std::uint64_t hi = load_be64(counter0);
  std::uint64_t lo = load_be64(counter0 + 8);
  std::size_t offset = 0;
  for (; len - offset >= 16 * kLanes; offset += 16 * kLanes) {
    __m128i b[kLanes];
    const __m128i first = load(round_keys);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) b[i] = _mm_xor_si128(next_counter(hi, lo), first);
    for (std::size_t r = 1; r < rounds; ++r) {
      const __m128i k = load(round_keys + 16 * r);
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kLanes; ++i) b[i] = _mm_aesenc_si128(b[i], k);
    }
    const __m128i last = load(round_keys + 16 * rounds);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
      std::uint8_t* p = data + offset + 16 * i;
      store(p, _mm_xor_si128(load(p), _mm_aesenclast_si128(b[i], last)));
    }
  }
  for (; offset < len; offset += 16) {
    const __m128i keystream = encrypt(next_counter(hi, lo), round_keys, rounds);
    std::uint8_t* p = data + offset;
    if (len - offset >= 16) {
      store(p, _mm_xor_si128(load(p), keystream));
    } else {
      std::uint8_t tail[16];
      store(tail, keystream);
      for (std::size_t i = 0; i < len - offset; ++i) p[i] ^= tail[i];
    }
  }
}

/// Reverses the 16 bytes, so GCM's bit order (x^0 = MSB of byte 0) becomes
/// a bit-reflected little-endian 128-bit integer.
DATABLINDER_AES_HW_TARGET inline __m128i byte_reverse(__m128i x) {
  return _mm_shuffle_epi8(x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// a * b in GF(2^128), both byte-reversed (Gueron & Kounavis, Intel white
/// paper "Carry-Less Multiplication and Its Usage for Computing the GCM
/// Mode", algorithm 1 with the shift-then-reduce variant).
DATABLINDER_AES_HW_TARGET inline __m128i gf_mul(__m128i a, __m128i b) {
  // 256-bit carry-less product [hi:lo] by schoolbook on 64-bit halves.
  __m128i lo = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i hi = _mm_clmulepi64_si128(a, b, 0x11);
  __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                              _mm_clmulepi64_si128(a, b, 0x01));
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

  // The product of two reflected operands is the reflected product
  // shifted right by one: shift [hi:lo] left by one bit.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));

  // Reduce modulo x^128 + x^7 + x^2 + x + 1 (reflected).
  __m128i t = _mm_xor_si128(_mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
                            _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  t = _mm_xor_si128(_mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
                    _mm_srli_epi32(lo, 7));
  lo = _mm_xor_si128(lo, _mm_xor_si128(t, spill));
  return _mm_xor_si128(hi, lo);
}

DATABLINDER_AES_HW_TARGET void hw_ghash(const std::uint8_t h[16], std::uint8_t y[16],
                                        const std::uint8_t* data, std::size_t len) {
  const __m128i hv = byte_reverse(load(h));
  __m128i acc = byte_reverse(load(y));
  std::size_t offset = 0;
  for (; len - offset >= 16; offset += 16) {
    acc = gf_mul(_mm_xor_si128(acc, byte_reverse(load(data + offset))), hv);
  }
  if (offset < len) {
    std::uint8_t block[16] = {0};
    std::memcpy(block, data + offset, len - offset);
    acc = gf_mul(_mm_xor_si128(acc, byte_reverse(load(block))), hv);
  }
  store(y, byte_reverse(acc));
}

constexpr AesKernels kHardware{hw_encrypt_block, hw_ctr_xcrypt, hw_ghash};

#endif  // __x86_64__

constexpr AesKernels kPortable{portable::aes_encrypt_block, portable::aes_ctr_xcrypt,
                               portable::ghash};

}  // namespace

const AesKernels& portable_aes_kernels() { return kPortable; }

const AesKernels* hardware_aes_kernels() {
#if defined(__x86_64__)
  static const bool supported =
      __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul");
  return supported ? &kHardware : nullptr;
#else
  return nullptr;
#endif
}

const AesKernels& active_aes_kernels() {
  static const AesKernels& active =
      hardware_aes_kernels() != nullptr ? *hardware_aes_kernels() : kPortable;
  return active;
}

}  // namespace datablinder::crypto
