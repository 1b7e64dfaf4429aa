// The P-256 field layer: Montgomery arithmetic (R = 2^256) with the
// modulus baked in as template constants.  The limbs and the
// -m^-1 mod 2^64 constant are compile-time values, so the CIOS loops fully
// unroll, the zero limb of the P-256 prime drops its multiplies, and the
// prime's m' = 1 makes the reduction quotient free.  Fp (the field prime)
// and Fn (the group order) are the only field code P-256 runs on: the
// comb/wNAF/Strauss–Shamir ladders, the inversions and every domain
// conversion in p256.cc.  The differential tests check both against a
// generic runtime Montgomery class that lives in the test-only oracle
// library and shares no code with this one.

#ifndef SRC_CRYPTO_P256_FIELD_H_
#define SRC_CRYPTO_P256_FIELD_H_

#include <cstdint>

#include "src/crypto/u256.h"

namespace bolted::crypto::field {

// -(m0^-1) mod 2^64 by Newton iteration, evaluated at compile time.
constexpr uint64_t MontInvNeg64(uint64_t m0) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m0 * inv;
  }
  return ~inv + 1;
}

template <uint64_t M0, uint64_t M1, uint64_t M2, uint64_t M3>
struct MontField {
  static constexpr uint64_t kM[4] = {M0, M1, M2, M3};
  static constexpr uint64_t kInvNeg = MontInvNeg64(M0);

  static U256 Modulus() { return U256{{M0, M1, M2, M3}}; }

  // R mod m = 2^256 - m, the Montgomery form of 1.  m is odd, so negating
  // it never carries out of the low limb.
  static constexpr U256 One() { return U256{{~M0 + 1, ~M1, ~M2, ~M3}}; }

  // R^2 mod m: R mod m doubled 256 times, evaluated at compile time.
  static U256 R2() {
    constexpr U256 r2 = [] {
      U256 r = One();
      for (int i = 0; i < 256; ++i) {
        const uint64_t carry = r.limb[3] >> 63;
        for (size_t j = 3; j > 0; --j) {
          r.limb[j] = (r.limb[j] << 1) | (r.limb[j - 1] >> 63);
        }
        r.limb[0] <<= 1;
        if (carry || GeModulus(r)) {
          r = SubModulus(r);
        }
      }
      return r;
    }();
    return r2;
  }

  // a·R mod m and a·R^-1 mod m, for any 256-bit a.
  static U256 ToMont(const U256& a) { return Mul(a, R2()); }
  static U256 FromMont(const U256& a) { return Mul(a, U256::One()); }

  // Reduces any 256-bit value into [0, m): m > 2^255, so one conditional
  // subtraction suffices.
  static U256 Reduce(const U256& a) { return GeModulus(a) ? SubModulus(a) : a; }

  static constexpr bool GeModulus(const U256& a) {
    for (int i = 3; i >= 0; --i) {
      if (a.limb[static_cast<size_t>(i)] != kM[i]) {
        return a.limb[static_cast<size_t>(i)] > kM[i];
      }
    }
    return true;  // equal
  }

  static constexpr U256 SubModulus(const U256& a) {
    U256 out;
    uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 diff =
          static_cast<unsigned __int128>(a.limb[static_cast<size_t>(i)]) - kM[i] - borrow;
      out.limb[static_cast<size_t>(i)] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
    return out;
  }

  static U256 Add(const U256& a, const U256& b) {
    U256 sum;
    const uint64_t carry = AddCarry(a, b, sum);
    if (carry || GeModulus(sum)) {
      return SubModulus(sum);
    }
    return sum;
  }

  static U256 Sub(const U256& a, const U256& b) {
    U256 diff;
    uint64_t borrow = SubBorrow(a, b, diff);
    if (borrow) {
      uint64_t carry = 0;
      for (int i = 0; i < 4; ++i) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(diff.limb[static_cast<size_t>(i)]) + kM[i] + carry;
        diff.limb[static_cast<size_t>(i)] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
    }
    return diff;
  }

  static U256 Neg(const U256& a) {
    if (a.IsZero()) {
      return a;
    }
    U256 out;
    uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 diff =
          static_cast<unsigned __int128>(kM[i]) - a.limb[static_cast<size_t>(i)] - borrow;
      out.limb[static_cast<size_t>(i)] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
    return out;
  }

  // CIOS Montgomery product over constant modulus limbs, which the
  // compiler unrolls and folds.
  static U256 Mul(const U256& a, const U256& b) {
    uint64_t t[6] = {};
    for (int i = 0; i < 4; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < 4; ++j) {
        const unsigned __int128 acc =
            static_cast<unsigned __int128>(a.limb[static_cast<size_t>(i)]) *
                b.limb[static_cast<size_t>(j)] +
            t[j] + carry;
        t[j] = static_cast<uint64_t>(acc);
        carry = static_cast<uint64_t>(acc >> 64);
      }
      unsigned __int128 acc = static_cast<unsigned __int128>(t[4]) + carry;
      t[4] = static_cast<uint64_t>(acc);
      t[5] = static_cast<uint64_t>(acc >> 64);

      const uint64_t m = t[0] * kInvNeg;
      {
        const unsigned __int128 first = static_cast<unsigned __int128>(m) * kM[0] + t[0];
        carry = static_cast<uint64_t>(first >> 64);
      }
      for (int j = 1; j < 4; ++j) {
        const unsigned __int128 acc2 =
            static_cast<unsigned __int128>(m) * kM[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(acc2);
        carry = static_cast<uint64_t>(acc2 >> 64);
      }
      acc = static_cast<unsigned __int128>(t[4]) + carry;
      t[3] = static_cast<uint64_t>(acc);
      t[4] = t[5] + static_cast<uint64_t>(acc >> 64);
      t[5] = 0;
    }

    U256 result{{t[0], t[1], t[2], t[3]}};
    if (t[4] != 0 || GeModulus(result)) {
      return SubModulus(result);
    }
    return result;
  }

  static U256 Sqr(const U256& a) { return Mul(a, a); }
};

// The P-256 field prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1: one limb is
// zero and m' = 1, which is where most of the specialization win comes
// from.
using Fp = MontField<0xffffffffffffffffULL, 0x00000000ffffffffULL, 0x0000000000000000ULL,
                     0xffffffff00000001ULL>;

namespace internal {

// Montgomery reduction of a 512-bit value for the P-256 prime.  m' = 1, so
// each round's quotient is just the low limb; and with the prime's limbs
// [2^64-1, 2^32-1, 0, 2^64-2^32+1] the m*(2^64-1) term telescopes
// (t0 + m*(2^64-1) = m*2^64 exactly), leaving two constant multiplies per
// round.  The rounds stay branch-free; only the final correction tests.
inline U256 P256Reduce512(const uint64_t t[8]) {
  using u128 = unsigned __int128;
  uint64_t t0 = t[0], t1 = t[1], t2 = t[2], t3 = t[3];
  uint64_t t4 = t[4], t5 = t[5], t6 = t[6], t7 = t[7];
  uint64_t spill = 0;  // carries that escaped past the active 5-limb window

  const auto round = [](uint64_t m, uint64_t& a1, uint64_t& a2, uint64_t& a3,
                        uint64_t& a4) -> uint64_t {
    u128 r = static_cast<u128>(m) * 0x00000000ffffffffULL + a1 + m;
    a1 = static_cast<uint64_t>(r);
    r = static_cast<u128>(a2) + static_cast<uint64_t>(r >> 64);
    a2 = static_cast<uint64_t>(r);
    r = static_cast<u128>(m) * 0xffffffff00000001ULL + a3 + static_cast<uint64_t>(r >> 64);
    a3 = static_cast<uint64_t>(r);
    r = static_cast<u128>(a4) + static_cast<uint64_t>(r >> 64);
    a4 = static_cast<uint64_t>(r);
    return static_cast<uint64_t>(r >> 64);
  };

  uint64_t c = round(t0, t1, t2, t3, t4);
  uint64_t c2 = round(t1, t2, t3, t4, t5);
  u128 s = static_cast<u128>(t5) + c;
  t5 = static_cast<uint64_t>(s);
  c = c2 + static_cast<uint64_t>(s >> 64);
  c2 = round(t2, t3, t4, t5, t6);
  s = static_cast<u128>(t6) + c;
  t6 = static_cast<uint64_t>(s);
  c = c2 + static_cast<uint64_t>(s >> 64);
  c2 = round(t3, t4, t5, t6, t7);
  s = static_cast<u128>(t7) + c;
  t7 = static_cast<uint64_t>(s);
  spill = c2 + static_cast<uint64_t>(s >> 64);

  U256 r{{t4, t5, t6, t7}};
  if (spill || Fp::GeModulus(r)) {
    return Fp::SubModulus(r);
  }
  return r;
}

}  // namespace internal

// Fp multiplication: full 512-bit schoolbook product, then the dedicated
// P-256 reduction above.  Measurably faster than the interleaved CIOS of
// the primary template on the latency-bound ladder chains.
template <>
inline U256 Fp::Mul(const U256& a, const U256& b) {
  using u128 = unsigned __int128;
  uint64_t t[8];
  u128 acc;
  uint64_t c;
  acc = static_cast<u128>(a.limb[0]) * b.limb[0];
  t[0] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[0]) * b.limb[1] + c;
  t[1] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[0]) * b.limb[2] + c;
  t[2] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[0]) * b.limb[3] + c;
  t[3] = static_cast<uint64_t>(acc);
  t[4] = static_cast<uint64_t>(acc >> 64);

  acc = static_cast<u128>(a.limb[1]) * b.limb[0] + t[1];
  t[1] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * b.limb[1] + t[2] + c;
  t[2] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * b.limb[2] + t[3] + c;
  t[3] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * b.limb[3] + t[4] + c;
  t[4] = static_cast<uint64_t>(acc);
  t[5] = static_cast<uint64_t>(acc >> 64);

  acc = static_cast<u128>(a.limb[2]) * b.limb[0] + t[2];
  t[2] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[2]) * b.limb[1] + t[3] + c;
  t[3] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[2]) * b.limb[2] + t[4] + c;
  t[4] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[2]) * b.limb[3] + t[5] + c;
  t[5] = static_cast<uint64_t>(acc);
  t[6] = static_cast<uint64_t>(acc >> 64);

  acc = static_cast<u128>(a.limb[3]) * b.limb[0] + t[3];
  t[3] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[3]) * b.limb[1] + t[4] + c;
  t[4] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[3]) * b.limb[2] + t[5] + c;
  t[5] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[3]) * b.limb[3] + t[6] + c;
  t[6] = static_cast<uint64_t>(acc);
  t[7] = static_cast<uint64_t>(acc >> 64);

  return internal::P256Reduce512(t);
}

// Fp squaring: the six off-diagonal products are computed once and doubled
// with shifts, so the product half needs 10 multiplies instead of 16.
template <>
inline U256 Fp::Sqr(const U256& a) {
  using u128 = unsigned __int128;
  uint64_t t[8];
  u128 acc;
  uint64_t c;
  acc = static_cast<u128>(a.limb[0]) * a.limb[1];
  t[1] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[0]) * a.limb[2] + c;
  t[2] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[0]) * a.limb[3] + c;
  t[3] = static_cast<uint64_t>(acc);
  t[4] = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * a.limb[2] + t[3];
  t[3] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * a.limb[3] + t[4] + c;
  t[4] = static_cast<uint64_t>(acc);
  t[5] = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[2]) * a.limb[3] + t[5];
  t[5] = static_cast<uint64_t>(acc);
  t[6] = static_cast<uint64_t>(acc >> 64);

  t[7] = t[6] >> 63;
  t[6] = (t[6] << 1) | (t[5] >> 63);
  t[5] = (t[5] << 1) | (t[4] >> 63);
  t[4] = (t[4] << 1) | (t[3] >> 63);
  t[3] = (t[3] << 1) | (t[2] >> 63);
  t[2] = (t[2] << 1) | (t[1] >> 63);
  t[1] = t[1] << 1;

  acc = static_cast<u128>(a.limb[0]) * a.limb[0];
  t[0] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(t[1]) + c;
  t[1] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[1]) * a.limb[1] + t[2] + c;
  t[2] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(t[3]) + c;
  t[3] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[2]) * a.limb[2] + t[4] + c;
  t[4] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(t[5]) + c;
  t[5] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  acc = static_cast<u128>(a.limb[3]) * a.limb[3] + t[6] + c;
  t[6] = static_cast<uint64_t>(acc);
  c = static_cast<uint64_t>(acc >> 64);
  t[7] += c;

  return internal::P256Reduce512(t);
}

// The P-256 group order n (no special structure, but the constant-limb
// unrolling still pays in Sign/Verify's scalar-side arithmetic).
using Fn = MontField<0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL, 0xffffffffffffffffULL,
                     0xffffffff00000000ULL>;

}  // namespace bolted::crypto::field

#endif  // SRC_CRYPTO_P256_FIELD_H_
