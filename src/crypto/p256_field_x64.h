// The x86-64 kernel for the P-256 prime field: the same Montgomery
// arithmetic as field::Fp (R = 2^256, one conditional subtraction per
// operation, so every result is the identical 256-bit value), written in
// GCC extended asm.
//
// Mul interleaves four MULX rows with the prime's m' = 1 reduction
// (Gueron and Krasnov, "Fast prime field elliptic-curve cryptography with
// 256-bit primes", J. Cryptogr. Eng. 2015).  Each row adds a·b[i] into a
// six-limb window on two independent carry chains, ADCX for the low
// halves and ADOX for the high halves; each reduction round takes the low
// limb m as its quotient and, because p's limbs are [2^64-1, 2^32-1, 0,
// 2^64-2^32+1], adds m<<32 and m>>32 into the next two limbs and the MULX
// product m·(2^64-2^32+1) into the two after, carrying into a spill limb.
// One SUB/SBB pass and four CMOVs subtract p at the end.  Sqr is its own
// 10-MULX squaring (below).  Add and Sub are ADC/SBB chains with the same
// CMOV selection, so nothing here branches.
//
// The mnemonics assemble without -mbmi2/-madx, so the kernel lives in the
// default build; executing it needs BMI2 and ADX, which P256 checks once
// through cpu::Get() before it picks this kernel (p256.cc).  Operands are
// read through one pointer register each, which keeps every statement
// within the registers a frame-pointer build leaves (-O0, sanitizers).
// Everything else -- constants, Neg, the domain helpers -- is field::Fp's.

#ifndef SRC_CRYPTO_P256_FIELD_X64_H_
#define SRC_CRYPTO_P256_FIELD_X64_H_

#if defined(__x86_64__)

#include <cstdint>

#include "src/crypto/p256_field.h"
#include "src/crypto/u256.h"

#define BOLTED_P256_X64 1

namespace bolted::crypto::field {

struct FpX64 {
  static U256 Modulus() { return Fp::Modulus(); }
  static constexpr U256 One() { return Fp::One(); }
  static U256 R2() { return Fp::R2(); }
  static U256 Neg(const U256& a) { return Fp::Neg(a); }

  [[gnu::always_inline]] static inline U256 ToMont(const U256& a) { return Mul(a, R2()); }
  [[gnu::always_inline]] static inline U256 FromMont(const U256& a) {
    return Mul(a, U256::One());
  }

  // a·b·2^-256 mod p: Fp::Mul's value for any 256-bit a and b (ToMont
  // passes any a), below p when either operand is.  The six accumulator
  // limbs rotate through r0..r5: row i works on r[i..i+5 mod 6], and its
  // reduction frees r[i] for the next row's top.
  [[gnu::always_inline]] static inline U256 Mul(const U256& a, const U256& b) {
    uint64_t r0, r1, r2, r3, r4, r5, lo, hi;
    __asm__(
        // Row 0: r0..r4 = a·b0.
        "movq (%[bp]), %%rdx\n\t"
        "mulxq (%[ap]), %[r0], %[r1]\n\t"
        "mulxq 8(%[ap]), %[lo], %[r2]\n\t"
        "addq %[lo], %[r1]\n\t"
        "mulxq 16(%[ap]), %[lo], %[r3]\n\t"
        "adcq %[lo], %[r2]\n\t"
        "mulxq 24(%[ap]), %[lo], %[r4]\n\t"
        "adcq %[lo], %[r3]\n\t"
        "adcq $0, %[r4]\n\t"
        // Round 0: m = r0.
        "movq %[r0], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "shrq $32, %[r0]\n\t"
        "xorl %k[r5], %k[r5]\n\t"
        "addq %%rdx, %[r1]\n\t"
        "adcq %[r0], %[r2]\n\t"
        "adcq %[lo], %[r3]\n\t"
        "adcq %[hi], %[r4]\n\t"
        "adcq $0, %[r5]\n\t"
        // Row 1: r1..r5 += a·b1, carries into r0, which starts as 0.
        "movq 8(%[bp]), %%rdx\n\t"
        "xorl %k[r0], %k[r0]\n\t"
        "mulxq (%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r1]\n\t"
        "adoxq %[hi], %[r2]\n\t"
        "mulxq 8(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r2]\n\t"
        "adoxq %[hi], %[r3]\n\t"
        "mulxq 16(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r3]\n\t"
        "adoxq %[hi], %[r4]\n\t"
        "mulxq 24(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r4]\n\t"
        "adoxq %[hi], %[r5]\n\t"
        "adcxq %[r0], %[r5]\n\t"
        "adoxq %[r0], %[r0]\n\t"
        "adcq $0, %[r0]\n\t"
        // Round 1: m = r1.
        "movq %[r1], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "shrq $32, %[r1]\n\t"
        "addq %%rdx, %[r2]\n\t"
        "adcq %[r1], %[r3]\n\t"
        "adcq %[lo], %[r4]\n\t"
        "adcq %[hi], %[r5]\n\t"
        "adcq $0, %[r0]\n\t"
        // Row 2: r2..r0 += a·b2, carries into r1.
        "movq 16(%[bp]), %%rdx\n\t"
        "xorl %k[r1], %k[r1]\n\t"
        "mulxq (%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r2]\n\t"
        "adoxq %[hi], %[r3]\n\t"
        "mulxq 8(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r3]\n\t"
        "adoxq %[hi], %[r4]\n\t"
        "mulxq 16(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r4]\n\t"
        "adoxq %[hi], %[r5]\n\t"
        "mulxq 24(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r5]\n\t"
        "adoxq %[hi], %[r0]\n\t"
        "adcxq %[r1], %[r0]\n\t"
        "adoxq %[r1], %[r1]\n\t"
        "adcq $0, %[r1]\n\t"
        // Round 2: m = r2.
        "movq %[r2], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "shrq $32, %[r2]\n\t"
        "addq %%rdx, %[r3]\n\t"
        "adcq %[r2], %[r4]\n\t"
        "adcq %[lo], %[r5]\n\t"
        "adcq %[hi], %[r0]\n\t"
        "adcq $0, %[r1]\n\t"
        // Row 3: r3..r1 += a·b3, carries into r2.
        "movq 24(%[bp]), %%rdx\n\t"
        "xorl %k[r2], %k[r2]\n\t"
        "mulxq (%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r3]\n\t"
        "adoxq %[hi], %[r4]\n\t"
        "mulxq 8(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r4]\n\t"
        "adoxq %[hi], %[r5]\n\t"
        "mulxq 16(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r5]\n\t"
        "adoxq %[hi], %[r0]\n\t"
        "mulxq 24(%[ap]), %[lo], %[hi]\n\t"
        "adcxq %[lo], %[r0]\n\t"
        "adoxq %[hi], %[r1]\n\t"
        "adcxq %[r2], %[r1]\n\t"
        "adoxq %[r2], %[r2]\n\t"
        "adcq $0, %[r2]\n\t"
        // Round 3: m = r3.  The result T < 2p sits in r4, r5, r0, r1, r2.
        "movq %[r3], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "shrq $32, %[r3]\n\t"
        "addq %%rdx, %[r4]\n\t"
        "adcq %[r3], %[r5]\n\t"
        "adcq %[lo], %[r0]\n\t"
        "adcq %[hi], %[r1]\n\t"
        "adcq $0, %[r2]\n\t"
        // T - p; keep it unless the subtraction borrowed.
        "movq %[r4], %[lo]\n\t"
        "movq %[r5], %[hi]\n\t"
        "movq %[r0], %%rdx\n\t"
        "movq %[r1], %[r3]\n\t"
        "subq $-1, %[lo]\n\t"
        "sbbq %[p1], %[hi]\n\t"
        "sbbq $0, %%rdx\n\t"
        "sbbq %[p3], %[r3]\n\t"
        "sbbq $0, %[r2]\n\t"
        "cmovncq %[lo], %[r4]\n\t"
        "cmovncq %[hi], %[r5]\n\t"
        "cmovncq %%rdx, %[r0]\n\t"
        "cmovncq %[r3], %[r1]\n\t"
        : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3),
          [r4] "=&r"(r4), [r5] "=&r"(r5), [lo] "=&r"(lo), [hi] "=&r"(hi)
        : [ap] "r"(a.limb.data()), [bp] "r"(b.limb.data()), "m"(a.limb), "m"(b.limb),
          [p1] "m"(Fp::kM[1]), [p3] "m"(Fp::kM[3])
        : "rdx", "cc");
    return U256{{r4, r5, r0, r1}};
  }

  // a^2·2^-256 mod p for any 256-bit a, the same value as Mul(a, a) in
  // 10 MULX products instead of 16: the six cross products once, doubled
  // on the ADCX chain while the ADOX chain adds the four squares.  The
  // 512-bit square t0..t7 is then reduced low half first: four rounds
  // fold m·p into a four-limb window over t0..t3 (each round's top limb
  // reuses the one it frees), and the window is added to t4..t7 once.
  [[gnu::always_inline]] static inline U256 Sqr(const U256& a) {
    uint64_t t0, t1, t2, t3, t4, t5, t6, t7, lo, hi;
    __asm__(
        // Cross products Σ a_i·a_j (i < j) into t1..t6.
        "movq (%[ap]), %%rdx\n\t"
        "mulxq 8(%[ap]), %[t1], %[t2]\n\t"
        "mulxq 16(%[ap]), %[lo], %[t3]\n\t"
        "addq %[lo], %[t2]\n\t"
        "mulxq 24(%[ap]), %[lo], %[t4]\n\t"
        "adcq %[lo], %[t3]\n\t"
        "movq 8(%[ap]), %%rdx\n\t"
        "mulxq 24(%[ap]), %[lo], %[t5]\n\t"
        "adcq %[lo], %[t4]\n\t"
        "movq 16(%[ap]), %%rdx\n\t"
        "mulxq 24(%[ap]), %[lo], %[t6]\n\t"
        "adcq %[lo], %[t5]\n\t"
        "adcq $0, %[t6]\n\t"
        "movq 8(%[ap]), %%rdx\n\t"
        "mulxq 16(%[ap]), %[lo], %[hi]\n\t"
        "addq %[lo], %[t3]\n\t"
        "adcq %[hi], %[t4]\n\t"
        "adcq $0, %[t5]\n\t"
        "adcq $0, %[t6]\n\t"
        // Double them (ADCX) and add the squares a_i^2 (ADOX).
        "xorl %k[t7], %k[t7]\n\t"
        "movq (%[ap]), %%rdx\n\t"
        "mulxq %%rdx, %[t0], %[hi]\n\t"
        "adcxq %[t1], %[t1]\n\t"
        "adoxq %[hi], %[t1]\n\t"
        "movq 8(%[ap]), %%rdx\n\t"
        "mulxq %%rdx, %[lo], %[hi]\n\t"
        "adcxq %[t2], %[t2]\n\t"
        "adoxq %[lo], %[t2]\n\t"
        "adcxq %[t3], %[t3]\n\t"
        "adoxq %[hi], %[t3]\n\t"
        "movq 16(%[ap]), %%rdx\n\t"
        "mulxq %%rdx, %[lo], %[hi]\n\t"
        "adcxq %[t4], %[t4]\n\t"
        "adoxq %[lo], %[t4]\n\t"
        "adcxq %[t5], %[t5]\n\t"
        "adoxq %[hi], %[t5]\n\t"
        "movq 24(%[ap]), %%rdx\n\t"
        "mulxq %%rdx, %[lo], %[hi]\n\t"
        "adcxq %[t6], %[t6]\n\t"
        "adoxq %[lo], %[t6]\n\t"
        "adoxq %[t7], %[hi]\n\t"
        "adcxq %[hi], %[t7]\n\t"
        // Round 0: m = t0; the window becomes t1, t2, t3, t0.
        "movq %[t0], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[t0]\n\t"
        "movq %%rdx, %[hi]\n\t"
        "shrq $32, %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "addq %%rdx, %[t1]\n\t"
        "adcq %[hi], %[t2]\n\t"
        "adcq %[lo], %[t3]\n\t"
        "adcq $0, %[t0]\n\t"
        // Round 1: m = t1; the window becomes t2, t3, t0, t1.
        "movq %[t1], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[t1]\n\t"
        "movq %%rdx, %[hi]\n\t"
        "shrq $32, %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "addq %%rdx, %[t2]\n\t"
        "adcq %[hi], %[t3]\n\t"
        "adcq %[lo], %[t0]\n\t"
        "adcq $0, %[t1]\n\t"
        // Round 2: m = t2; the window becomes t3, t0, t1, t2.
        "movq %[t2], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[t2]\n\t"
        "movq %%rdx, %[hi]\n\t"
        "shrq $32, %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "addq %%rdx, %[t3]\n\t"
        "adcq %[hi], %[t0]\n\t"
        "adcq %[lo], %[t1]\n\t"
        "adcq $0, %[t2]\n\t"
        // Round 3: m = t3; the window becomes t0, t1, t2, t3.
        "movq %[t3], %%rdx\n\t"
        "mulxq %[p3], %[lo], %[t3]\n\t"
        "movq %%rdx, %[hi]\n\t"
        "shrq $32, %[hi]\n\t"
        "shlq $32, %%rdx\n\t"
        "addq %%rdx, %[t0]\n\t"
        "adcq %[hi], %[t1]\n\t"
        "adcq %[lo], %[t2]\n\t"
        "adcq $0, %[t3]\n\t"
        // T = t4..t7 + window, a spill bit in hi; then T - p unless it
        // borrows.
        "xorl %k[hi], %k[hi]\n\t"
        "addq %[t0], %[t4]\n\t"
        "adcq %[t1], %[t5]\n\t"
        "adcq %[t2], %[t6]\n\t"
        "adcq %[t3], %[t7]\n\t"
        "adcq $0, %[hi]\n\t"
        "movq %[t4], %[t0]\n\t"
        "movq %[t5], %[t1]\n\t"
        "movq %[t6], %[t2]\n\t"
        "movq %[t7], %[t3]\n\t"
        "subq $-1, %[t0]\n\t"
        "sbbq %[p1], %[t1]\n\t"
        "sbbq $0, %[t2]\n\t"
        "sbbq %[p3], %[t3]\n\t"
        "sbbq $0, %[hi]\n\t"
        "cmovncq %[t0], %[t4]\n\t"
        "cmovncq %[t1], %[t5]\n\t"
        "cmovncq %[t2], %[t6]\n\t"
        "cmovncq %[t3], %[t7]\n\t"
        : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
          [t4] "=&r"(t4), [t5] "=&r"(t5), [t6] "=&r"(t6), [t7] "=&r"(t7),
          [lo] "=&r"(lo), [hi] "=&r"(hi)
        : [ap] "r"(a.limb.data()), "m"(a.limb), [p1] "m"(Fp::kM[1]), [p3] "m"(Fp::kM[3])
        : "rdx", "cc");
    return U256{{t4, t5, t6, t7}};
  }

  // (a + b) mod p for a, b < p.
  [[gnu::always_inline]] static inline U256 Add(const U256& a, const U256& b) {
    uint64_t t0 = a.limb[0], t1 = a.limb[1], t2 = a.limb[2], t3 = a.limb[3];
    uint64_t s0, s1, s2, s3, carry;
    __asm__(
        "xorl %k[c], %k[c]\n\t"
        "addq (%[bp]), %[t0]\n\t"
        "adcq 8(%[bp]), %[t1]\n\t"
        "adcq 16(%[bp]), %[t2]\n\t"
        "adcq 24(%[bp]), %[t3]\n\t"
        "adcq $0, %[c]\n\t"
        "movq %[t0], %[s0]\n\t"
        "movq %[t1], %[s1]\n\t"
        "movq %[t2], %[s2]\n\t"
        "movq %[t3], %[s3]\n\t"
        "subq $-1, %[s0]\n\t"
        "sbbq %[p1], %[s1]\n\t"
        "sbbq $0, %[s2]\n\t"
        "sbbq %[p3], %[s3]\n\t"
        "sbbq $0, %[c]\n\t"
        "cmovncq %[s0], %[t0]\n\t"
        "cmovncq %[s1], %[t1]\n\t"
        "cmovncq %[s2], %[t2]\n\t"
        "cmovncq %[s3], %[t3]\n\t"
        : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
          [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3),
          [c] "=&r"(carry)
        : [bp] "r"(b.limb.data()), "m"(b.limb), [p1] "m"(Fp::kM[1]), [p3] "m"(Fp::kM[3])
        : "cc");
    return U256{{t0, t1, t2, t3}};
  }

  // (a - b) mod p for a, b < p.
  [[gnu::always_inline]] static inline U256 Sub(const U256& a, const U256& b) {
    uint64_t t0 = a.limb[0], t1 = a.limb[1], t2 = a.limb[2], t3 = a.limb[3];
    uint64_t s0, s1, s2, s3, borrow;
    __asm__(
        "subq (%[bp]), %[t0]\n\t"
        "sbbq 8(%[bp]), %[t1]\n\t"
        "sbbq 16(%[bp]), %[t2]\n\t"
        "sbbq 24(%[bp]), %[t3]\n\t"
        "sbbq %[w], %[w]\n\t"
        "movq %[t0], %[s0]\n\t"
        "movq %[t1], %[s1]\n\t"
        "movq %[t2], %[s2]\n\t"
        "movq %[t3], %[s3]\n\t"
        "addq $-1, %[s0]\n\t"
        "adcq %[p1], %[s1]\n\t"
        "adcq $0, %[s2]\n\t"
        "adcq %[p3], %[s3]\n\t"
        "testq %[w], %[w]\n\t"
        "cmovnzq %[s0], %[t0]\n\t"
        "cmovnzq %[s1], %[t1]\n\t"
        "cmovnzq %[s2], %[t2]\n\t"
        "cmovnzq %[s3], %[t3]\n\t"
        : [t0] "+&r"(t0), [t1] "+&r"(t1), [t2] "+&r"(t2), [t3] "+&r"(t3),
          [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3),
          [w] "=&r"(borrow)
        : [bp] "r"(b.limb.data()), "m"(b.limb), [p1] "m"(Fp::kM[1]), [p3] "m"(Fp::kM[3])
        : "cc");
    return U256{{t0, t1, t2, t3}};
  }
};

}  // namespace bolted::crypto::field

#endif  // defined(__x86_64__)

#endif  // SRC_CRYPTO_P256_FIELD_X64_H_
