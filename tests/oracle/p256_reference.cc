#include "tests/oracle/p256_reference.h"

#include <cstdint>
#include <string_view>

#include "src/crypto/hmac.h"

namespace bolted::oracle {

using crypto::Bytes;
using crypto::Digest;
using crypto::EcdsaSignature;
using crypto::EcPoint;
using crypto::U256;

namespace {

// Curve P-256 (FIPS 186-4, D.1.2.3): field prime, group order, the
// coefficient b, and the base point G.
constexpr std::string_view kPrimeHex =
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
constexpr std::string_view kOrderHex =
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
constexpr std::string_view kBHex =
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
constexpr std::string_view kGxHex =
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
constexpr std::string_view kGyHex =
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

}  // namespace

U256 Exp(const Montgomery& m, const U256& base, const U256& exponent) {
  U256 result = m.one_mont();
  for (int i = 255; i >= 0; --i) {
    result = m.Sqr(result);
    if (exponent.Bit(i)) {
      result = m.Mul(result, base);
    }
  }
  return result;
}

U256 FermatInverse(const Montgomery& m, const U256& a) {
  U256 exponent;  // m - 2
  crypto::SubBorrow(m.modulus(), U256{{2, 0, 0, 0}}, exponent);
  return Exp(m, a, exponent);
}

const P256Reference& P256Reference::Instance() {
  static const P256Reference curve;
  return curve;
}

P256Reference::P256Reference()
    : p_(U256::FromHexString(kPrimeHex)),
      n_(U256::FromHexString(kOrderHex)),
      fp_(p_),
      fn_(n_),
      b_mont_(fp_.ToMont(U256::FromHexString(kBHex))),
      three_mont_(fp_.ToMont(U256{{3, 0, 0, 0}})),
      g_{fp_.ToMont(U256::FromHexString(kGxHex)),
         fp_.ToMont(U256::FromHexString(kGyHex)), fp_.one_mont()} {}

bool P256Reference::IsOnCurve(const EcPoint& point) const {
  if (point.infinity) {
    return true;
  }
  if (point.x >= p_ || point.y >= p_) {
    return false;
  }
  const U256 x = fp_.ToMont(point.x);
  const U256 y = fp_.ToMont(point.y);
  // y^2 == x^3 - 3x + b
  const U256 rhs = fp_.Add(
      fp_.Sub(fp_.Mul(fp_.Sqr(x), x), fp_.Mul(three_mont_, x)), b_mont_);
  return fp_.Sqr(y) == rhs;
}

P256Reference::Jacobian P256Reference::ToJacobian(const EcPoint& p) const {
  if (p.infinity) {
    return Jacobian{};
  }
  return Jacobian{fp_.ToMont(p.x), fp_.ToMont(p.y), fp_.one_mont()};
}

EcPoint P256Reference::ToAffine(const Jacobian& p) const {
  if (p.z.IsZero()) {
    return EcPoint{U256::Zero(), U256::Zero(), /*infinity=*/true};
  }
  const U256 z_inv = FermatInverse(fp_, p.z);
  const U256 z_inv2 = fp_.Sqr(z_inv);
  const U256 z_inv3 = fp_.Mul(z_inv2, z_inv);
  EcPoint out;
  out.x = fp_.FromMont(fp_.Mul(p.x, z_inv2));
  out.y = fp_.FromMont(fp_.Mul(p.y, z_inv3));
  return out;
}

P256Reference::Jacobian P256Reference::Double(const Jacobian& p) const {
  if (p.z.IsZero() || p.y.IsZero()) {
    return Jacobian{};
  }
  // dbl-2001-b for a = -3:
  //   delta = Z^2, gamma = Y^2, beta = X*gamma
  //   alpha = 3*(X-delta)*(X+delta)
  //   X3 = alpha^2 - 8*beta
  //   Z3 = (Y+Z)^2 - gamma - delta
  //   Y3 = alpha*(4*beta - X3) - 8*gamma^2
  const U256 delta = fp_.Sqr(p.z);
  const U256 gamma = fp_.Sqr(p.y);
  const U256 beta = fp_.Mul(p.x, gamma);
  const U256 alpha =
      fp_.Mul(three_mont_, fp_.Mul(fp_.Sub(p.x, delta), fp_.Add(p.x, delta)));

  const U256 beta2 = fp_.Add(beta, beta);
  const U256 beta4 = fp_.Add(beta2, beta2);
  const U256 beta8 = fp_.Add(beta4, beta4);

  Jacobian out;
  out.x = fp_.Sub(fp_.Sqr(alpha), beta8);
  out.z = fp_.Sub(fp_.Sub(fp_.Sqr(fp_.Add(p.y, p.z)), gamma), delta);
  const U256 gamma2 = fp_.Sqr(gamma);
  const U256 gamma2_8 =
      fp_.Add(fp_.Add(fp_.Add(gamma2, gamma2), fp_.Add(gamma2, gamma2)),
              fp_.Add(fp_.Add(gamma2, gamma2), fp_.Add(gamma2, gamma2)));
  out.y = fp_.Sub(fp_.Mul(alpha, fp_.Sub(beta4, out.x)), gamma2_8);
  return out;
}

P256Reference::Jacobian P256Reference::AddPoints(const Jacobian& p,
                                                 const Jacobian& q) const {
  if (p.z.IsZero()) {
    return q;
  }
  if (q.z.IsZero()) {
    return p;
  }
  const U256 z1z1 = fp_.Sqr(p.z);
  const U256 z2z2 = fp_.Sqr(q.z);
  const U256 u1 = fp_.Mul(p.x, z2z2);
  const U256 u2 = fp_.Mul(q.x, z1z1);
  const U256 s1 = fp_.Mul(fp_.Mul(p.y, q.z), z2z2);
  const U256 s2 = fp_.Mul(fp_.Mul(q.y, p.z), z1z1);
  const U256 h = fp_.Sub(u2, u1);
  const U256 r = fp_.Sub(s2, s1);
  if (h.IsZero()) {
    if (r.IsZero()) {
      return Double(p);
    }
    return Jacobian{};  // P + (-P) = infinity
  }
  const U256 hh = fp_.Sqr(h);
  const U256 hhh = fp_.Mul(h, hh);
  const U256 v = fp_.Mul(u1, hh);

  Jacobian out;
  out.x = fp_.Sub(fp_.Sub(fp_.Sqr(r), hhh), fp_.Add(v, v));
  out.y = fp_.Sub(fp_.Mul(r, fp_.Sub(v, out.x)), fp_.Mul(s1, hhh));
  out.z = fp_.Mul(fp_.Mul(p.z, q.z), h);
  return out;
}

P256Reference::Jacobian P256Reference::ScalarMul(const U256& k,
                                                 const Jacobian& p) const {
  Jacobian result{};  // infinity
  bool seen_bit = false;
  for (int i = 255; i >= 0; --i) {
    if (seen_bit) {
      result = Double(result);
    }
    if (k.Bit(i)) {
      result = AddPoints(result, p);
      seen_bit = true;
    }
  }
  return result;
}

EcPoint P256Reference::Multiply(const U256& k, const EcPoint& point) const {
  return ToAffine(ScalarMul(k, ToJacobian(point)));
}

EcdsaSignature P256Reference::Sign(const U256& private_key,
                                   const Digest& message_hash) const {
  const U256 z = fn_.Reduce(U256::FromBytes(crypto::DigestView(message_hash)));
  const Bytes priv_bytes = private_key.ToBytes();

  for (uint32_t attempt = 0;; ++attempt) {
    // The deterministic nonce crypto::P256::Sign derives: HMAC over the
    // private key, the message hash, and a retry counter.
    Bytes nonce_input = crypto::DigestBytes(message_hash);
    crypto::AppendU32(nonce_input, attempt);
    const Digest k_digest = crypto::HmacSha256(priv_bytes, nonce_input);
    const U256 k = fn_.Reduce(U256::FromBytes(crypto::DigestView(k_digest)));
    if (k.IsZero()) {
      continue;
    }

    const EcPoint kg = ToAffine(ScalarMul(k, g_));
    const U256 r = fn_.Reduce(kg.x);
    if (r.IsZero()) {
      continue;
    }

    // s = k^-1 (z + r*d) mod n, computed in the Montgomery domain of n.
    const U256 k_mont = fn_.ToMont(k);
    const U256 r_mont = fn_.ToMont(r);
    const U256 d_mont = fn_.ToMont(private_key);
    const U256 z_mont = fn_.ToMont(z);
    const U256 sum = fn_.Add(z_mont, fn_.Mul(r_mont, d_mont));
    const U256 s_mont = fn_.Mul(FermatInverse(fn_, k_mont), sum);
    const U256 s = fn_.FromMont(s_mont);
    if (s.IsZero()) {
      continue;
    }
    return EcdsaSignature{r, s};
  }
}

bool P256Reference::Verify(const EcPoint& public_key,
                           const Digest& message_hash,
                           const EcdsaSignature& signature) const {
  if (signature.r.IsZero() || signature.s.IsZero() || signature.r >= n_ ||
      signature.s >= n_) {
    return false;
  }
  if (!IsOnCurve(public_key) || public_key.infinity) {
    return false;
  }

  const U256 z = fn_.Reduce(U256::FromBytes(crypto::DigestView(message_hash)));
  const U256 s_mont = fn_.ToMont(signature.s);
  const U256 w_mont = FermatInverse(fn_, s_mont);  // s^-1, Montgomery form
  const U256 u1 = fn_.FromMont(fn_.Mul(fn_.ToMont(z), w_mont));
  const U256 u2 = fn_.FromMont(fn_.Mul(fn_.ToMont(signature.r), w_mont));

  const Jacobian sum =
      AddPoints(ScalarMul(u1, g_), ScalarMul(u2, ToJacobian(public_key)));
  if (sum.z.IsZero()) {
    return false;
  }
  const EcPoint affine = ToAffine(sum);
  return fn_.Reduce(affine.x) == signature.r;
}

std::optional<Bytes> P256Reference::SharedSecret(const U256& private_key,
                                                 const EcPoint& peer) const {
  if (!IsOnCurve(peer) || peer.infinity) {
    return std::nullopt;
  }
  const Jacobian product = ScalarMul(private_key, ToJacobian(peer));
  if (product.z.IsZero()) {
    return std::nullopt;
  }
  return ToAffine(product).x.ToBytes();
}

}  // namespace bolted::oracle
