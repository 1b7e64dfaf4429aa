// The textbook P-256 arithmetic that crypto::P256's fast ladders replaced,
// kept as their differential-test oracle and as the old-vs-new baseline
// of bench_crypto_json (DESIGN.md §6).  Test-only: no target under src/
// links it.
//
// Everything runs on the oracle's own generic Montgomery class
// (montgomery.h): a plain double-and-add ladder over Jacobian coordinates,
// Fermat inversions, and the FIPS 186-4 curve constants.  It shares no
// ladder, table, inversion or field code with crypto::P256, which is what
// makes the two agreeing mean something.  Not constant-time.

#ifndef TESTS_ORACLE_P256_REFERENCE_H_
#define TESTS_ORACLE_P256_REFERENCE_H_

#include <optional>

#include "src/crypto/bytes.h"
#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"
#include "tests/oracle/montgomery.h"

namespace bolted::oracle {

// base^exponent by left-to-right square-and-multiply; base and result in
// m's Montgomery domain.
crypto::U256 Exp(const Montgomery& m, const crypto::U256& base,
                 const crypto::U256& exponent);
// a^-1 as a^(m-2) (Fermat's little theorem; the modulus must be prime).
// Montgomery domain in and out.
crypto::U256 FermatInverse(const Montgomery& m, const crypto::U256& a);

class P256Reference {
 public:
  static const P256Reference& Instance();

  // k·P; the point at infinity when P is, or when k is a multiple of the
  // group order.
  crypto::EcPoint Multiply(const crypto::U256& k,
                           const crypto::EcPoint& point) const;
  // ECDSA with the same deterministic nonce as crypto::P256::Sign.
  crypto::EcdsaSignature Sign(const crypto::U256& private_key,
                              const crypto::Digest& message_hash) const;
  bool Verify(const crypto::EcPoint& public_key,
              const crypto::Digest& message_hash,
              const crypto::EcdsaSignature& signature) const;
  // ECDH x-coordinate; nullopt for an invalid peer or an infinite product.
  std::optional<crypto::Bytes> SharedSecret(const crypto::U256& private_key,
                                            const crypto::EcPoint& peer) const;

 private:
  P256Reference();

  // Jacobian coordinates in the Montgomery domain of fp_.
  struct Jacobian {
    crypto::U256 x;
    crypto::U256 y;
    crypto::U256 z;  // zero limbs = point at infinity
  };

  bool IsOnCurve(const crypto::EcPoint& point) const;
  Jacobian ToJacobian(const crypto::EcPoint& p) const;
  crypto::EcPoint ToAffine(const Jacobian& p) const;
  Jacobian Double(const Jacobian& p) const;
  Jacobian AddPoints(const Jacobian& p, const Jacobian& q) const;
  Jacobian ScalarMul(const crypto::U256& k, const Jacobian& p) const;

  crypto::U256 p_;  // field prime
  crypto::U256 n_;  // group order
  Montgomery fp_;
  Montgomery fn_;
  crypto::U256 b_mont_;      // curve b in Montgomery form
  crypto::U256 three_mont_;  // 3 in Montgomery form
  Jacobian g_;               // base point
};

}  // namespace bolted::oracle

#endif  // TESTS_ORACLE_P256_REFERENCE_H_
