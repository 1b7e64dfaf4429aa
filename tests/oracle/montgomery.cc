#include "tests/oracle/montgomery.h"

#include <cassert>

namespace bolted::oracle {

using crypto::AddCarry;
using crypto::SubBorrow;
using crypto::U256;

Montgomery::Montgomery(const U256& modulus) : m_(modulus) {
  assert(modulus.IsOdd());
  assert(modulus.Bit(255));

  // Newton iteration for m^-1 mod 2^64, then negate.
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m_.limb[0] * inv;
  }
  m0_inv_neg_ = ~inv + 1;

  // R mod m = 2^256 - m (since 2^255 <= m < 2^256).
  U256 zero = U256::Zero();
  SubBorrow(zero, m_, one_mont_);

  // R^2 mod m by doubling R mod m 256 times.
  U256 r2 = one_mont_;
  for (int i = 0; i < 256; ++i) {
    const uint64_t carry = AddCarry(r2, r2, r2);
    if (carry || r2 >= m_) {
      U256 reduced;
      SubBorrow(r2, m_, reduced);
      r2 = reduced;
    }
  }
  r2_ = r2;
}

U256 Montgomery::Add(const U256& a, const U256& b) const {
  U256 sum;
  const uint64_t carry = AddCarry(a, b, sum);
  if (carry || sum >= m_) {
    U256 reduced;
    SubBorrow(sum, m_, reduced);
    return reduced;
  }
  return sum;
}

U256 Montgomery::Sub(const U256& a, const U256& b) const {
  U256 diff;
  const uint64_t borrow = SubBorrow(a, b, diff);
  if (borrow) {
    U256 wrapped;
    AddCarry(diff, m_, wrapped);
    return wrapped;
  }
  return diff;
}

U256 Montgomery::Neg(const U256& a) const {
  if (a.IsZero()) {
    return a;
  }
  U256 out;
  SubBorrow(m_, a, out);
  return out;
}

// CIOS Montgomery multiplication.
U256 Montgomery::Mul(const U256& a, const U256& b) const {
  uint64_t t[6] = {};  // t[4] is the running high limb, t[5] its carry
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 acc = static_cast<unsigned __int128>(a.limb[i]) *
                                        b.limb[j] +
                                    t[j] + carry;
      t[j] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
    unsigned __int128 acc = static_cast<unsigned __int128>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(acc);
    t[5] = static_cast<uint64_t>(acc >> 64);

    // m = t[0] * m0_inv_neg_; t += m * modulus; t >>= 64
    const uint64_t m = t[0] * m0_inv_neg_;
    carry = 0;
    {
      const unsigned __int128 first =
          static_cast<unsigned __int128>(m) * m_.limb[0] + t[0];
      carry = static_cast<uint64_t>(first >> 64);
    }
    for (int j = 1; j < 4; ++j) {
      const unsigned __int128 acc2 = static_cast<unsigned __int128>(m) * m_.limb[j] +
                                     t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(acc2);
      carry = static_cast<uint64_t>(acc2 >> 64);
    }
    acc = static_cast<unsigned __int128>(t[4]) + carry;
    t[3] = static_cast<uint64_t>(acc);
    t[4] = t[5] + static_cast<uint64_t>(acc >> 64);
    t[5] = 0;
  }

  U256 result{{t[0], t[1], t[2], t[3]}};
  if (t[4] != 0 || result >= m_) {
    U256 reduced;
    SubBorrow(result, m_, reduced);
    return reduced;
  }
  return result;
}

U256 Montgomery::ToMont(const U256& a) const { return Mul(a, r2_); }

U256 Montgomery::FromMont(const U256& a) const { return Mul(a, U256::One()); }

U256 Montgomery::Reduce(const U256& a) const {
  if (a < m_) {
    return a;
  }
  U256 out;
  SubBorrow(a, m_, out);
  return out;
}

}  // namespace bolted::oracle
