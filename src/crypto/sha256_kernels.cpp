// Kernel tables and the SHA-NI compression kernel.
//
// The hardware kernel is compiled with a per-function target attribute,
// not a global -msha, so the library still runs on CPUs without the SHA
// extensions: it is reached only through `hardware_sha256_kernels()`,
// which returns it after CPUID leaf 7 says they are present.
//
// Register layout follows Intel's "Intel SHA Extensions" white paper
// (Gulley et al., 2013): SHA256RNDS2 keeps the working variables as
// {A,B,E,F} and {C,D,G,H}, and each call runs two rounds on the low two
// dwords of W+K. SHA256MSG1/MSG2 compute the message schedule four words
// at a time.
#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define DATABLINDER_SHA_HW_TARGET __attribute__((target("sha,sse4.1,ssse3")))
#endif

namespace datablinder::crypto {

namespace {

#if defined(__x86_64__)

DATABLINDER_SHA_HW_TARGET void hw_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                                           std::size_t n) {
  // Big-endian message words: byte-swap each dword.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds W[4g .. 4g+3] for the current group of four rounds.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i w;
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]
        w = _mm_sha256msg1_epu32(msg[g % 4], msg[(g + 1) % 4]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(msg[(g + 3) % 4], msg[(g + 2) % 4], 4));
        w = _mm_sha256msg2_epu32(w, msg[(g + 3) % 4]);
      }
      msg[g % 4] = w;
      __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256RoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

constexpr Sha256Kernels kHardware{hw_compress};

bool cpu_has_sha() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kSsse3 = 1u << 9, kSse41 = 1u << 19;  // CPUID.1:ECX
  if ((ecx & kSsse3) == 0 || (ecx & kSse41) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kSha = 1u << 29;  // CPUID.(7,0):EBX
  return (ebx & kSha) != 0;
}

#endif  // __x86_64__

constexpr Sha256Kernels kPortable{portable::sha256_compress};

}  // namespace

const Sha256Kernels& portable_sha256_kernels() { return kPortable; }

const Sha256Kernels* hardware_sha256_kernels() {
#if defined(__x86_64__)
  static const bool supported = cpu_has_sha();
  return supported ? &kHardware : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernels& active_sha256_kernels() { return kPortable; }

}  // namespace datablinder::crypto
