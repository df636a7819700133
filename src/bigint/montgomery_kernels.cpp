// Kernel tables, the portable CIOS kernel and the BMI2 + ADX kernel.
//
// The hardware row is one inline-asm block, so its two carry chains (CF
// for the low product words, OF for the high ones) survive from limb to
// limb; loop counters move by `lea` and exit by `jrcxz`, neither of which
// touches a flag. At 8 limbs the whole multiply is one block with its
// window in registers. The assembler accepts mulx/adcx/adox without -mbmi2/-madx,
// so the library still runs on CPUs without them: only
// `active_mont_kernels()` decides, after CPUID reports both, whether the
// row is ever executed.
#include "bigint/montgomery_kernels.hpp"

#include <cstddef>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace datablinder::bigint {

namespace {

using Limb = std::uint64_t;
using U128 = unsigned __int128;
constexpr unsigned kLimbBits = 64;

/// out = x + y over n limbs; returns the carry (0 or 1). Fixed trip count.
Limb add_n(Limb* out, const Limb* x, const Limb* y, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U128 s = static_cast<U128>(x[i]) + y[i] + carry;
    out[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> kLimbBits);
  }
  return carry;
}

/// out = x - y over n limbs; returns the borrow (0 or 1). Fixed trip count.
Limb sub_n(Limb* out, const Limb* x, const Limb* y, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U128 d = static_cast<U128>(x[i]) - y[i] - borrow;
    out[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> kLimbBits) & 1;
  }
  return borrow;
}

/// The final step of every Montgomery multiply: the value hi:u, with hi
/// in {0, 1}, is below 2m; out = hi:u mod m. The difference u - m is always
/// computed (into `scratch`), and a mask picks it exactly when hi equals
/// the borrow: hi = 1 means hi:u >= R > m, and hi = 0 with no borrow means
/// u >= m. No branch and no early exit depends on the values.
void reduce_once(Limb* out, const Limb* u, Limb hi, const Limb* m, Limb* scratch,
                 std::size_t n) {
  const Limb borrow = sub_n(scratch, u, m, n);
  const Limb take_diff = (hi ^ borrow) - 1;  // all ones iff hi == borrow
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (scratch[i] & take_diff) | (u[i] & ~take_diff);
  }
}

// --- portable: CIOS ----------------------------------------------------------

// Interleaves multiplication by b with word-by-word reduction; t never
// grows beyond n+2 limbs.
void portable_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb m0inv,
                  std::size_t n) {
  Limb t[kMontMaxLimbs + 2];
  for (std::size_t i = 0; i < n + 2; ++i) t[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    const U128 ai = a[i];
    U128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const U128 s = t[j] + ai * b[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
    U128 s = t[n] + carry;
    t[n] = static_cast<Limb>(s);
    t[n + 1] = static_cast<Limb>(s >> kLimbBits);

    // One reduction word: make t divisible by 2^64 and shift it out.
    const U128 q = static_cast<Limb>(t[0] * m0inv);
    s = t[0] + q * m[0];
    carry = s >> kLimbBits;  // low word is zero by construction
    for (std::size_t j = 1; j < n; ++j) {
      s = t[j] + q * m[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
    s = t[n] + carry;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = t[n + 1] + static_cast<Limb>(s >> kLimbBits);
    t[n + 1] = 0;
  }
  Limb diff[kMontMaxLimbs];
  reduce_once(out, t, t[n], m, diff, n);
}

constexpr MontKernels kPortable{portable_mul};

// --- hardware: mulx + adcx/adox ----------------------------------------------

#if defined(__x86_64__)

/// t[0..n) += a[0..n) * b; returns the carry limb. The n % 4 odd limbs go
/// first, then four limbs per trip; CF carries the low words and OF the
/// high words of the products, and both fold into the returned limb.
inline Limb addmul_row(Limb* t, const Limb* a, std::size_t n, Limb b) {
  Limb lo, hi_a, hi_b;
  std::size_t count = n & 3;
  std::size_t quads = n >> 2;
  __asm__(
      "xorl %k[lo], %k[lo]\n\t"  // clears CF and OF
      "movq $0, %[hb]\n\t"
      "jrcxz 2f\n"
      "1:\n\t"
      "mulxq (%[a]), %[lo], %[ha]\n\t"
      "adcxq (%[t]), %[lo]\n\t"
      "adoxq %[hb], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "movq %[ha], %[hb]\n\t"
      "leaq 8(%[a]), %[a]\n\t"
      "leaq 8(%[t]), %[t]\n\t"
      "leaq -1(%%rcx), %%rcx\n\t"
      "jrcxz 2f\n\t"
      "jmp 1b\n"
      "2:\n\t"
      "movq %[quads], %%rcx\n\t"
      "jrcxz 4f\n"
      "3:\n\t"
      "mulxq (%[a]), %[lo], %[ha]\n\t"
      "adcxq (%[t]), %[lo]\n\t"
      "adoxq %[hb], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "mulxq 8(%[a]), %[lo], %[hb]\n\t"
      "adcxq 8(%[t]), %[lo]\n\t"
      "adoxq %[ha], %[lo]\n\t"
      "movq %[lo], 8(%[t])\n\t"
      "mulxq 16(%[a]), %[lo], %[ha]\n\t"
      "adcxq 16(%[t]), %[lo]\n\t"
      "adoxq %[hb], %[lo]\n\t"
      "movq %[lo], 16(%[t])\n\t"
      "mulxq 24(%[a]), %[lo], %[hb]\n\t"
      "adcxq 24(%[t]), %[lo]\n\t"
      "adoxq %[ha], %[lo]\n\t"
      "movq %[lo], 24(%[t])\n\t"
      "leaq 32(%[a]), %[a]\n\t"
      "leaq 32(%[t]), %[t]\n\t"
      "leaq -1(%%rcx), %%rcx\n\t"
      "jrcxz 4f\n\t"
      "jmp 3b\n"
      "4:\n\t"
      "movl $0, %k[lo]\n\t"  // mov leaves the flags alone
      "adcxq %[lo], %[hb]\n\t"
      "adoxq %[lo], %[hb]\n\t"
      : [lo] "=&r"(lo), [ha] "=&r"(hi_a), [hb] "=&r"(hi_b), [t] "+r"(t), [a] "+r"(a),
        "+c"(count)
      : [quads] "r"(quads), "d"(b)
      : "cc", "memory");
  return hi_b;
}

/// out = t * R^-1 mod m for t < m * R in 2n limbs (GMP's redc_1): reduction
/// row i adds q_i * m at limb i, which zeroes t[i], and parks the row's
/// carry there. The parked carries belong one row-width up, so they are
/// added to the upper half in one pass at the end. Destroys t.
void redc(Limb* out, Limb* t, const Limb* m, Limb m0inv, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) t[i] = addmul_row(t + i, m, n, t[i] * m0inv);
  const Limb hi = add_n(out, t + n, t, n);
  reduce_once(out, out, hi, m, t, n);
}

/// Scratch and arguments of the 8-limb kernel, addressed from one register.
struct Mul8Frame {
  Limb t[8];        // low half of the product, then the upper half
  Limb carries[8];  // each reduction row's parked carry
  Limb m0inv;
  const Limb* m;
  Limb* out;
  Limb hi;          // carry out of the final addition
};
static_assert(offsetof(Mul8Frame, carries) == 64 && offsetof(Mul8Frame, m0inv) == 128 &&
              offsetof(Mul8Frame, m) == 136 && offsetof(Mul8Frame, out) == 144 &&
              offsetof(Mul8Frame, hi) == 152);

/// The 8-limb multiply, the width of Paillier-512's p^2, q^2 and n, with
/// its window in r8-r15 instead of memory. The rows are hardware_mul's;
/// each row macro is called with the window's registers rotated by one
/// limb, so the register a row finishes becomes the next row's top.
///   * Product row i: window += a * b[i]; the finished low limb goes to
///     t[i] and the row's carry limb into the register it left.
///   * After eight rows the window is the upper half; it trades places with
///     the low half in t.
///   * REDC row i: window += m * q_i, zeroing its low limb; the upper-half
///     limb t[8+i] enters at the top and the row's carry is parked.
///   * out = window + parked carries; the carry out of that goes to hi.
void hardware_mul8(Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb m0inv) {
  Mul8Frame f;  // t, carries and hi are written before they are read
  f.m0inv = m0inv;
  f.m = m;
  f.out = out;
  __asm__ volatile(
      // x += lo(a[off] * rdx) + CF, y += hi(a[off] * rdx) + OF
      ".macro DBM8_STEP off, x, y\n\t"
      "mulxq \\off(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, \\x\n\t"
      "adoxq %%rbx, \\y\n\t"
      ".endm\n\t"
      ".macro DBM8_MUL_ROW o, w0, w1, w2, w3, w4, w5, w6, w7\n\t"
      "movq \\o(%[b]), %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"  // clears CF and OF
      "DBM8_STEP 0, \\w0, \\w1\n\t"
      "movq \\w0, \\o(%[f])\n\t"
      "movq $0, \\w0\n\t"  // mov leaves the flags alone
      "DBM8_STEP 8, \\w1, \\w2\n\t"
      "DBM8_STEP 16, \\w2, \\w3\n\t"
      "DBM8_STEP 24, \\w3, \\w4\n\t"
      "DBM8_STEP 32, \\w4, \\w5\n\t"
      "DBM8_STEP 40, \\w5, \\w6\n\t"
      "DBM8_STEP 48, \\w6, \\w7\n\t"
      "DBM8_STEP 56, \\w7, \\w0\n\t"
      "movl $0, %%eax\n\t"
      "adcxq %%rax, \\w0\n\t"
      ".endm\n\t"
      ".macro DBM8_REDC_ROW o, w0, w1, w2, w3, w4, w5, w6, w7\n\t"
      "movq \\w0, %%rdx\n\t"
      "imulq 128(%[f]), %%rdx\n\t"  // q = t[i] * m0inv
      "xorl %%eax, %%eax\n\t"
      "DBM8_STEP 0, \\w0, \\w1\n\t"
      "movq \\o(%[f]), \\w0\n\t"  // upper-half limb t[8+i] enters at the top
      "DBM8_STEP 8, \\w1, \\w2\n\t"
      "DBM8_STEP 16, \\w2, \\w3\n\t"
      "DBM8_STEP 24, \\w3, \\w4\n\t"
      "DBM8_STEP 32, \\w4, \\w5\n\t"
      "DBM8_STEP 40, \\w5, \\w6\n\t"
      "DBM8_STEP 48, \\w6, \\w7\n\t"
      "mulxq 56(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, \\w7\n\t"
      "movl $0, %%eax\n\t"
      "adoxq %%rax, %%rbx\n\t"
      "adcxq %%rax, %%rbx\n\t"
      "movq %%rbx, 64+\\o(%[f])\n\t"  // the parked carry
      ".endm\n\t"
      ".macro DBM8_SWAP o, w\n\t"
      "movq \\o(%[f]), %%rax\n\t"
      "movq \\w, \\o(%[f])\n\t"
      "movq %%rax, \\w\n\t"
      ".endm\n\t"
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%r11d, %%r11d\n\t"
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      "xorl %%r14d, %%r14d\n\t"
      "xorl %%r15d, %%r15d\n\t"
      "DBM8_MUL_ROW 0, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15\n\t"
      "DBM8_MUL_ROW 8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8\n\t"
      "DBM8_MUL_ROW 16, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9\n\t"
      "DBM8_MUL_ROW 24, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10\n\t"
      "DBM8_MUL_ROW 32, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11\n\t"
      "DBM8_MUL_ROW 40, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12\n\t"
      "DBM8_MUL_ROW 48, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13\n\t"
      "DBM8_MUL_ROW 56, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14\n\t"
      "DBM8_SWAP 0, %%r8\n\t"
      "DBM8_SWAP 8, %%r9\n\t"
      "DBM8_SWAP 16, %%r10\n\t"
      "DBM8_SWAP 24, %%r11\n\t"
      "DBM8_SWAP 32, %%r12\n\t"
      "DBM8_SWAP 40, %%r13\n\t"
      "DBM8_SWAP 48, %%r14\n\t"
      "DBM8_SWAP 56, %%r15\n\t"
      "movq 136(%[f]), %[a]\n\t"  // a is read; the REDC rows read m
      "DBM8_REDC_ROW 0, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15\n\t"
      "DBM8_REDC_ROW 8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8\n\t"
      "DBM8_REDC_ROW 16, %%r10, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9\n\t"
      "DBM8_REDC_ROW 24, %%r11, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10\n\t"
      "DBM8_REDC_ROW 32, %%r12, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11\n\t"
      "DBM8_REDC_ROW 40, %%r13, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12\n\t"
      "DBM8_REDC_ROW 48, %%r14, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13\n\t"
      "DBM8_REDC_ROW 56, %%r15, %%r8, %%r9, %%r10, %%r11, %%r12, %%r13, %%r14\n\t"
      "addq 64(%[f]), %%r8\n\t"
      "adcq 72(%[f]), %%r9\n\t"
      "adcq 80(%[f]), %%r10\n\t"
      "adcq 88(%[f]), %%r11\n\t"
      "adcq 96(%[f]), %%r12\n\t"
      "adcq 104(%[f]), %%r13\n\t"
      "adcq 112(%[f]), %%r14\n\t"
      "adcq 120(%[f]), %%r15\n\t"
      "movl $0, %%eax\n\t"
      "adcq $0, %%rax\n\t"
      "movq %%rax, 152(%[f])\n\t"
      "movq 144(%[f]), %[b]\n\t"  // b is read; write out
      "movq %%r8, 0(%[b])\n\t"
      "movq %%r9, 8(%[b])\n\t"
      "movq %%r10, 16(%[b])\n\t"
      "movq %%r11, 24(%[b])\n\t"
      "movq %%r12, 32(%[b])\n\t"
      "movq %%r13, 40(%[b])\n\t"
      "movq %%r14, 48(%[b])\n\t"
      "movq %%r15, 56(%[b])\n\t"
      ".purgem DBM8_STEP\n\t"
      ".purgem DBM8_MUL_ROW\n\t"
      ".purgem DBM8_REDC_ROW\n\t"
      ".purgem DBM8_SWAP\n\t"
      : [a] "+r"(a), [b] "+r"(b)
      : [f] "r"(&f)
      : "rax", "rbx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "cc",
        "memory");
  reduce_once(out, out, f.hi, m, f.t, 8);
}

/// Product rows into 2n limbs, then REDC. Eight limbs, the hot width,
/// keep their window in registers; every other width runs the looped row.
void hardware_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb m0inv,
                  std::size_t n) {
  if (n == 8) return hardware_mul8(out, a, b, m, m0inv);
  // Not zeroed: every limb is written before it is read, and clearing the
  // whole buffer would cost more than a small multiply.
  Limb t[2 * kMontMaxLimbs];
  for (std::size_t i = 0; i < n; ++i) t[i] = 0;
  for (std::size_t i = 0; i < n; ++i) t[n + i] = addmul_row(t + i, a, n, b[i]);
  redc(out, t, m, m0inv, n);
}

constexpr MontKernels kHardware{hardware_mul};

bool cpu_has_bmi2_adx() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kBmi2 = 1u << 8, kAdx = 1u << 19;  // CPUID.(7,0):EBX
  return (ebx & kBmi2) != 0 && (ebx & kAdx) != 0;
}

#endif  // __x86_64__

}  // namespace

const MontKernels& portable_mont_kernels() { return kPortable; }

const MontKernels* hardware_mont_kernels() {
#if defined(__x86_64__)
  static const bool supported = cpu_has_bmi2_adx();
  return supported ? &kHardware : nullptr;
#else
  return nullptr;
#endif
}

const MontKernels& active_mont_kernels() {
  static const MontKernels& active =
      hardware_mont_kernels() != nullptr ? *hardware_mont_kernels() : kPortable;
  return active;
}

}  // namespace datablinder::bigint
