// A generic runtime Montgomery field class (any odd modulus with its top
// bit set), the field layer of the test-only oracles: oracle::P256Reference
// runs on it, and property_test's FieldOracleSweep checks
// crypto::field::Fp and crypto::field::Fn against it operation by
// operation.  It shares no field code with src/crypto, whose only field
// layer is the compile-time MontField of p256_field.h, so a fault on
// either side shows up as a disagreement instead of corrupting both.
// Test-only: no target under src/ links it.

#ifndef TESTS_ORACLE_MONTGOMERY_H_
#define TESTS_ORACLE_MONTGOMERY_H_

#include <cstdint>

#include "src/crypto/u256.h"

namespace bolted::oracle {

// Montgomery arithmetic modulo a fixed odd modulus with its top bit set
// (true for the P-256 field prime and group order).  Values passed to
// Mul/Sqr must be in the Montgomery domain (use ToMont/FromMont);
// Add/Sub/Neg work in either domain as they are plain modular ops.
class Montgomery {
 public:
  explicit Montgomery(const crypto::U256& modulus);

  const crypto::U256& modulus() const { return m_; }

  crypto::U256 ToMont(const crypto::U256& a) const;    // a * R mod m
  crypto::U256 FromMont(const crypto::U256& a) const;  // a * R^-1 mod m

  crypto::U256 Add(const crypto::U256& a, const crypto::U256& b) const;
  crypto::U256 Sub(const crypto::U256& a, const crypto::U256& b) const;
  crypto::U256 Neg(const crypto::U256& a) const;
  // Montgomery product.
  crypto::U256 Mul(const crypto::U256& a, const crypto::U256& b) const;
  crypto::U256 Sqr(const crypto::U256& a) const { return Mul(a, a); }
  // Reduces an arbitrary 256-bit value into [0, m).
  crypto::U256 Reduce(const crypto::U256& a) const;

  crypto::U256 one_mont() const { return one_mont_; }

 private:
  crypto::U256 m_;
  uint64_t m0_inv_neg_;    // -m^-1 mod 2^64
  crypto::U256 r2_;        // R^2 mod m
  crypto::U256 one_mont_;  // R mod m
};

}  // namespace bolted::oracle

#endif  // TESTS_ORACLE_MONTGOMERY_H_
