#include "src/crypto/p256.h"

#include <cassert>

#include "src/crypto/hmac.h"
#include "src/crypto/p256_field.h"

namespace bolted::crypto {
namespace {

using field::Fp;

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

// Fixed-base comb geometry: 22 twelve-bit windows of 4095 multiples each
// (~5.8 MiB built once per process).  The wide windows trade a one-time
// table build for ladder work: a 256-bit scalar costs at most 22 mixed
// additions and no doublings at all.
constexpr int kCombWindows = 22;
constexpr int kCombRow = 4095;

// Width-w NAF of a 256-bit scalar needs at most 257 digit positions (the
// carry out of the top bit can create one more).
constexpr int kNafDigits = 257;

// Montgomery-domain inverse via safegcd divsteps, with the domain fix-up
// compiled into this TU so it inlines under the ladder's optimization
// flags.  a = xR; ModInverseOdd yields x^-1 R^-1, and two products by R^2
// land on x^-1 R.
U256 InvMontFp(const U256& a, const U256& r2) {
  return Fp::Mul(Fp::Mul(ModInverseOdd(a, Fp::Modulus()), r2), r2);
}

U256 InvMontFn(const U256& a, const U256& r2) {
  using field::Fn;
  return Fn::Mul(Fn::Mul(ModInverseOdd(a, Fn::Modulus()), r2), r2);
}

// Recodes k into width-`width` NAF: every nonzero digit is odd with
// |digit| < 2^{width-1}, and any `width` consecutive digits hold at most
// one nonzero.  Returns the index of the highest nonzero digit, or -1.
int RecodeWnaf(U256 k, int width, int8_t digits[kNafDigits]) {
  for (int i = 0; i < kNafDigits; ++i) {
    digits[i] = 0;
  }
  const uint64_t mask = (uint64_t{1} << width) - 1;
  const uint64_t half = uint64_t{1} << (width - 1);
  uint64_t high = 0;  // virtual bit 256 (adding |d| can carry out)
  int i = 0;
  int last = -1;
  while (!k.IsZero() || high != 0) {
    if (k.IsOdd()) {
      const uint64_t mod = k.limb[0] & mask;
      const int d = mod < half ? static_cast<int>(mod)
                               : static_cast<int>(mod) - static_cast<int>(mask + 1);
      digits[i] = static_cast<int8_t>(d);
      last = i;
      const U256 small{{static_cast<uint64_t>(d < 0 ? -d : d), 0, 0, 0}};
      if (d > 0) {
        SubBorrow(k, small, k);
      } else {
        high += AddCarry(k, small, k);
      }
    }
    k = ShiftRight1(k, high & 1);
    high >>= 1;
    ++i;
  }
  return last;
}

// Extracts the w-th comb window of k: bits [12w, 12w+12).
uint64_t CombWindow(const U256& k, int w) {
  const int bit = 12 * w;
  const int limb = bit >> 6;
  const int shift = bit & 63;
  uint64_t v = k.limb[limb] >> shift;
  if (shift > 52 && limb + 1 < 4) {
    v |= k.limb[limb + 1] << (64 - shift);
  }
  return v & 0xfff;
}

}  // namespace

Bytes EcPoint::Encode() const {
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  Append(out, x.ToBytes());
  Append(out, y.ToBytes());
  return out;
}

std::optional<EcPoint> EcPoint::Decode(ByteView encoded) {
  if (encoded.size() != 65 || encoded[0] != 0x04) {
    return std::nullopt;
  }
  EcPoint p;
  p.x = U256::FromBytes(encoded.subspan(1, 32));
  p.y = U256::FromBytes(encoded.subspan(33, 32));
  if (!P256::Instance().IsOnCurve(p)) {
    return std::nullopt;
  }
  return p;
}

Bytes EcdsaSignature::Encode() const {
  Bytes out = r.ToBytes();
  Append(out, s.ToBytes());
  return out;
}

std::optional<EcdsaSignature> EcdsaSignature::Decode(ByteView encoded) {
  if (encoded.size() != 64) {
    return std::nullopt;
  }
  EcdsaSignature sig;
  sig.r = U256::FromBytes(encoded.subspan(0, 32));
  sig.s = U256::FromBytes(encoded.subspan(32, 32));
  return sig;
}

const P256& P256::Instance() {
  static const P256 curve;
  return curve;
}

P256::P256()
    : p_(U256::FromHexString(kPrimeHex)),
      n_(U256::FromHexString(kOrderHex)),
      fp_(p_),
      fn_(n_) {
  b_mont_ = fp_.ToMont(U256::FromHexString(kBHex));
  three_mont_ = fp_.ToMont(U256{{3, 0, 0, 0}});
  g_.x = fp_.ToMont(U256::FromHexString(kGxHex));
  g_.y = fp_.ToMont(U256::FromHexString(kGyHex));
  g_.z = fp_.one_mont();
  // ToMont(x) = x*R, so ToMont(R mod m) = R^2 mod m.
  r2_fp_ = fp_.ToMont(fp_.one_mont());
  r2_fn_ = fn_.ToMont(fn_.one_mont());

  // Build the comb table: row w holds 1..4095 times 2^{12w}·G.  The rows
  // are accumulated in Jacobian coordinates and normalized to affine in
  // one Montgomery-trick batch inversion at the end.
  std::vector<Jacobian> jac(static_cast<size_t>(kCombWindows) * kCombRow);
  Jacobian window_base = g_;
  for (int w = 0; w < kCombWindows; ++w) {
    Jacobian acc = window_base;
    for (int b = 1; b <= kCombRow; ++b) {
      jac[static_cast<size_t>(w) * kCombRow + static_cast<size_t>(b) - 1] = acc;
      AddJacobianFast(acc, window_base);
    }
    window_base = acc;  // 4096 · 2^{12w}·G = 2^{12(w+1)}·G
  }
  fixed_.resize(jac.size());
  NormalizeBatch(jac, fixed_.data());
}

U256 P256::PrivateKeyFromSeed(ByteView seed) const {
  // Hash-and-reduce with a retry counter; the reduction bias is
  // irrelevant for a simulator.
  for (uint32_t counter = 0;; ++counter) {
    Bytes material(seed.begin(), seed.end());
    AppendU32(material, counter);
    const Digest d = Sha256::Hash(material);
    U256 candidate = U256::FromBytes(DigestView(d));
    candidate = fn_.Reduce(candidate);
    if (!candidate.IsZero()) {
      return candidate;
    }
  }
}

bool P256::IsOnCurve(const EcPoint& point) const {
  if (point.infinity) {
    return true;
  }
  if (point.x >= p_ || point.y >= p_) {
    return false;
  }
  const U256 x = fp_.ToMont(point.x);
  const U256 y = fp_.ToMont(point.y);
  // y^2 == x^3 - 3x + b
  const U256 y2 = Fp::Sqr(y);
  const U256 x3 = Fp::Mul(Fp::Sqr(x), x);
  const U256 rhs = Fp::Add(Fp::Sub(x3, Fp::Mul(three_mont_, x)), b_mont_);
  return y2 == rhs;
}

P256::Jacobian P256::ToJacobian(const EcPoint& p) const {
  if (p.infinity) {
    return Jacobian{};
  }
  return Jacobian{fp_.ToMont(p.x), fp_.ToMont(p.y), fp_.one_mont()};
}

// --- Group law -------------------------------------------------------------

void P256::DoubleFast(Jacobian& p) const {
  if (p.z.IsZero() || p.y.IsZero()) {
    p = Jacobian{};
    return;
  }
  // dbl-2001-b for a = -3, with the multiply-by-3 folded into additions
  // (3M + 5S):
  //   delta = Z^2, gamma = Y^2, beta = X*gamma
  //   alpha = 3*(X-delta)*(X+delta)
  //   X3 = alpha^2 - 8*beta
  //   Z3 = (Y+Z)^2 - gamma - delta
  //   Y3 = alpha*(4*beta - X3) - 8*gamma^2
  const U256 delta = Fp::Sqr(p.z);
  const U256 gamma = Fp::Sqr(p.y);
  const U256 beta = Fp::Mul(p.x, gamma);
  const U256 t = Fp::Mul(Fp::Sub(p.x, delta), Fp::Add(p.x, delta));
  const U256 alpha = Fp::Add(Fp::Add(t, t), t);

  const U256 beta2 = Fp::Add(beta, beta);
  const U256 beta4 = Fp::Add(beta2, beta2);
  const U256 beta8 = Fp::Add(beta4, beta4);

  const U256 x3 = Fp::Sub(Fp::Sqr(alpha), beta8);
  const U256 z3 = Fp::Sub(Fp::Sub(Fp::Sqr(Fp::Add(p.y, p.z)), gamma), delta);
  const U256 gamma2 = Fp::Sqr(gamma);
  const U256 gamma2_2 = Fp::Add(gamma2, gamma2);
  const U256 gamma2_4 = Fp::Add(gamma2_2, gamma2_2);
  const U256 gamma2_8 = Fp::Add(gamma2_4, gamma2_4);
  p.y = Fp::Sub(Fp::Mul(alpha, Fp::Sub(beta4, x3)), gamma2_8);
  p.x = x3;
  p.z = z3;
}

void P256::AddJacobianFast(Jacobian& p, const Jacobian& q) const {
  if (p.z.IsZero()) {
    p = q;
    return;
  }
  if (q.z.IsZero()) {
    return;
  }
  const U256 z1z1 = Fp::Sqr(p.z);
  const U256 z2z2 = Fp::Sqr(q.z);
  const U256 u1 = Fp::Mul(p.x, z2z2);
  const U256 u2 = Fp::Mul(q.x, z1z1);
  const U256 s1 = Fp::Mul(Fp::Mul(p.y, q.z), z2z2);
  const U256 s2 = Fp::Mul(Fp::Mul(q.y, p.z), z1z1);
  const U256 h = Fp::Sub(u2, u1);
  const U256 r = Fp::Sub(s2, s1);
  if (h.IsZero()) {
    if (r.IsZero()) {
      DoubleFast(p);
      return;
    }
    p = Jacobian{};  // P + (-P) = infinity
    return;
  }
  const U256 hh = Fp::Sqr(h);
  const U256 hhh = Fp::Mul(h, hh);
  const U256 v = Fp::Mul(u1, hh);
  const U256 x3 = Fp::Sub(Fp::Sub(Fp::Sqr(r), hhh), Fp::Add(v, v));
  p.y = Fp::Sub(Fp::Mul(r, Fp::Sub(v, x3)), Fp::Mul(s1, hhh));
  p.z = Fp::Mul(Fp::Mul(p.z, q.z), h);
  p.x = x3;
}

void P256::AddMixed(Jacobian& p, const AffineMont& q, bool negate) const {
  const U256 qy = negate ? Fp::Neg(q.y) : q.y;
  if (p.z.IsZero()) {
    p = Jacobian{q.x, qy, fp_.one_mont()};
    return;
  }
  // madd (Z2 = 1): 8M + 3S.
  const U256 z1z1 = Fp::Sqr(p.z);
  const U256 u2 = Fp::Mul(q.x, z1z1);
  const U256 s2 = Fp::Mul(Fp::Mul(qy, p.z), z1z1);
  const U256 h = Fp::Sub(u2, p.x);
  const U256 r = Fp::Sub(s2, p.y);
  if (h.IsZero()) {
    if (r.IsZero()) {
      DoubleFast(p);
      return;
    }
    p = Jacobian{};  // P + (-P) = infinity
    return;
  }
  const U256 hh = Fp::Sqr(h);
  const U256 hhh = Fp::Mul(h, hh);
  const U256 v = Fp::Mul(p.x, hh);
  const U256 x3 = Fp::Sub(Fp::Sub(Fp::Sqr(r), hhh), Fp::Add(v, v));
  p.y = Fp::Sub(Fp::Mul(r, Fp::Sub(v, x3)), Fp::Mul(p.y, hhh));
  p.z = Fp::Mul(p.z, h);
  p.x = x3;
}

EcPoint P256::ToAffineFast(const Jacobian& p) const {
  if (p.z.IsZero()) {
    return EcPoint{U256::Zero(), U256::Zero(), /*infinity=*/true};
  }
  const U256 z_inv = InvMontFp(p.z, r2_fp_);
  const U256 z_inv2 = Fp::Sqr(z_inv);
  const U256 z_inv3 = Fp::Mul(z_inv2, z_inv);
  EcPoint out;
  out.x = fp_.FromMont(Fp::Mul(p.x, z_inv2));
  out.y = fp_.FromMont(Fp::Mul(p.y, z_inv3));
  return out;
}

void P256::NormalizeBatch(std::span<const Jacobian> in, AffineMont* out) const {
  // Montgomery trick with one inversion: prefix[i] holds the
  // product of all z's before i, so peeling the total inverse back to
  // front yields each individual z^-1 with three products per point.
  std::vector<U256> prefix(in.size());
  U256 acc = fp_.one_mont();
  for (size_t i = 0; i < in.size(); ++i) {
    assert(!in[i].z.IsZero());
    prefix[i] = acc;
    acc = Fp::Mul(acc, in[i].z);
  }
  U256 inv = InvMontFp(acc, r2_fp_);
  for (size_t i = in.size(); i-- > 0;) {
    const U256 z_inv = Fp::Mul(inv, prefix[i]);
    inv = Fp::Mul(inv, in[i].z);
    const U256 z2 = Fp::Sqr(z_inv);
    out[i].x = Fp::Mul(in[i].x, z2);
    out[i].y = Fp::Mul(in[i].y, Fp::Mul(z2, z_inv));
  }
}

void P256::BuildOddMultiples(const EcPoint& p, std::array<AffineMont, 16>& out) const {
  // 1P, 3P, ..., 31P: one doubling plus 15 additions, then one batch
  // normalization so the joint ladder can use mixed additions.
  std::array<Jacobian, 16> jac;
  jac[0] = ToJacobian(p);
  Jacobian twice = jac[0];
  DoubleFast(twice);
  for (size_t i = 1; i < jac.size(); ++i) {
    jac[i] = jac[i - 1];
    AddJacobianFast(jac[i], twice);
  }
  NormalizeBatch(jac, out.data());
}

// --- Scalar multiplication fast paths --------------------------------------

P256::Jacobian P256::MulBaseComb(const U256& k) const {
  // One mixed addition per nonzero 12-bit window; the comb table supplies
  // d · 2^{12w} · G directly, so no doublings at all.
  Jacobian acc{};
  for (int w = 0; w < kCombWindows; ++w) {
    const uint64_t d = CombWindow(k, w);
    if (d != 0) {
      const size_t index = static_cast<size_t>(w) * kCombRow + d - 1;
      AddMixed(acc, fixed_[index], /*negate=*/false);
    }
  }
  return acc;
}

P256::Jacobian P256::MulWnaf(const U256& k, const std::array<AffineMont, 16>& odd) const {
  int8_t digits[kNafDigits];
  const int top = RecodeWnaf(k, /*width=*/6, digits);
  Jacobian acc{};
  for (int i = top; i >= 0; --i) {
    DoubleFast(acc);
    const int d = digits[i];
    if (d != 0) {
      const size_t index = static_cast<size_t>((d < 0 ? -d : d) - 1) / 2;
      AddMixed(acc, odd[index], /*negate=*/d < 0);
    }
  }
  return acc;
}

P256::Jacobian P256::MulStraussShamir(
    const U256& u1, const U256& u2,
    const std::array<AffineMont, 128>& q_tables) const {
  // The PreparedKey tables cover 2^{64j}·Q for j ∈ [0, 4), so u2 splits
  // limb-wise into four 64-bit scalars that share one 64-position doubling
  // chain — a quarter of a full 256-bit ladder's doublings.  u1·G costs no
  // doublings at all: after the chain, each nonzero comb window is added
  // straight from its own table row.
  int8_t digits[4][kNafDigits];
  int top = -1;
  for (int j = 0; j < 4; ++j) {
    const U256 chunk{{u2.limb[j], 0, 0, 0}};
    const int t = RecodeWnaf(chunk, /*width=*/7, digits[j]);
    if (t > top) {
      top = t;
    }
  }
  Jacobian acc{};
  for (int i = top; i >= 0; --i) {
    DoubleFast(acc);
    for (int j = 0; j < 4; ++j) {
      const int d = digits[j][i];
      if (d != 0) {
        const size_t index =
            32 * static_cast<size_t>(j) + static_cast<size_t>((d < 0 ? -d : d) - 1) / 2;
        AddMixed(acc, q_tables[index], /*negate=*/d < 0);
      }
    }
  }
  for (int w = 0; w < kCombWindows; ++w) {
    const uint64_t d = CombWindow(u1, w);
    if (d != 0) {
      AddMixed(acc, fixed_[static_cast<size_t>(w) * kCombRow + d - 1],
               /*negate=*/false);
    }
  }
  return acc;
}

// --- Public API ------------------------------------------------------------

EcPoint P256::PublicKey(const U256& private_key) const {
  return ToAffineFast(MulBaseComb(private_key));
}

EcPoint P256::Multiply(const U256& k, const EcPoint& point) const {
  if (point.infinity || k.IsZero()) {
    return EcPoint{U256::Zero(), U256::Zero(), /*infinity=*/true};
  }
  std::array<AffineMont, 16> odd;
  BuildOddMultiples(point, odd);
  return ToAffineFast(MulWnaf(k, odd));
}

EcdsaSignature P256::Sign(const U256& private_key, const Digest& message_hash) const {
  return Sign(private_key, message_hash, nullptr);
}

EcdsaSignature P256::Sign(const U256& private_key, const Digest& message_hash,
                          EcPoint* r_point) const {
  const U256 z = fn_.Reduce(U256::FromBytes(DigestView(message_hash)));
  const Bytes priv_bytes = private_key.ToBytes();

  for (uint32_t attempt = 0;; ++attempt) {
    // Deterministic nonce in the spirit of RFC 6979: HMAC over the private
    // key, message hash, and a retry counter.  The textbook-ladder oracle
    // the tests compare against derives the same nonce, so the two
    // produce byte-identical signatures.
    Bytes nonce_input = DigestBytes(message_hash);
    AppendU32(nonce_input, attempt);
    const Digest k_digest = HmacSha256(priv_bytes, nonce_input);
    const U256 k = fn_.Reduce(U256::FromBytes(DigestView(k_digest)));
    if (k.IsZero()) {
      continue;
    }

    const EcPoint kg = ToAffineFast(MulBaseComb(k));
    const U256 r = fn_.Reduce(kg.x);
    if (r.IsZero()) {
      continue;
    }

    // s = k^-1 (z + r*d) mod n, computed in the Montgomery domain of n.
    const U256 k_mont = fn_.ToMont(k);
    const U256 r_mont = fn_.ToMont(r);
    const U256 d_mont = fn_.ToMont(private_key);
    const U256 z_mont = fn_.ToMont(z);
    const U256 sum = field::Fn::Add(z_mont, field::Fn::Mul(r_mont, d_mont));
    const U256 s_mont = field::Fn::Mul(InvMontFn(k_mont, r2_fn_), sum);
    const U256 s = fn_.FromMont(s_mont);
    if (s.IsZero()) {
      continue;
    }
    if (r_point == nullptr) {
      return EcdsaSignature{r, s};
    }
    // Batch-friendly form: (r, s) with nonce point R and (r, n−s) with −R
    // are the same signature, so pick the variant whose R has even y.
    // VerifyBatch's square-root recovery then reconstructs R from r alone.
    EcPoint nonce = kg;
    U256 s_out = s;
    if (kg.y.IsOdd()) {
      SubBorrow(n_, s, s_out);
      SubBorrow(p_, kg.y, nonce.y);
    }
    *r_point = nonce;
    return EcdsaSignature{r, s_out};
  }
}

bool P256::Verify(const EcPoint& public_key, const Digest& message_hash,
                  const EcdsaSignature& signature) const {
  const std::optional<PreparedKey> key = Prepare(public_key);
  return key.has_value() && Verify(*key, message_hash, signature);
}

bool P256::Verify(const PreparedKey& public_key, const Digest& message_hash,
                  const EcdsaSignature& signature) const {
  if (signature.r.IsZero() || signature.s.IsZero() || signature.r >= n_ ||
      signature.s >= n_) {
    return false;
  }
  const U256 z = fn_.Reduce(U256::FromBytes(DigestView(message_hash)));
  const U256 s_mont = fn_.ToMont(signature.s);
  const U256 w_mont = InvMontFn(s_mont, r2_fn_);  // s^-1 in Montgomery form
  const U256 u1 = fn_.FromMont(field::Fn::Mul(fn_.ToMont(z), w_mont));
  const U256 u2 = fn_.FromMont(field::Fn::Mul(fn_.ToMont(signature.r), w_mont));

  const Jacobian sum = MulStraussShamir(u1, u2, public_key.odd_);
  if (sum.z.IsZero()) {
    return false;
  }
  // Accept iff x(sum) mod n == r, without leaving Jacobian coordinates:
  // the affine x equals X/Z^2, and x mod n == r means x is r or r + n
  // (the only candidates below p), so test X == candidate * Z^2 instead
  // of paying a field inversion.
  const U256 z2 = Fp::Sqr(sum.z);
  if (Fp::Mul(fp_.ToMont(signature.r), z2) == sum.x) {
    return true;
  }
  U256 r_plus_n;
  if (AddCarry(signature.r, n_, r_plus_n) == 0 && r_plus_n < p_) {
    return Fp::Mul(fp_.ToMont(r_plus_n), z2) == sum.x;
  }
  return false;
}

std::optional<P256::PreparedKey> P256::Prepare(const EcPoint& public_key) const {
  if (!IsOnCurve(public_key) || public_key.infinity) {
    return std::nullopt;
  }
  PreparedKey key;
  key.point_ = public_key;
  // Four odd-multiple groups, one per 64-bit chunk of the verify scalar:
  // group j holds 1,3,...,63 times 2^{64j}·Q (width-7 NAF).  8 KB per
  // key: a prepared AIK is cached for the node's lifetime, so the wider
  // table trades a one-time 64-addition build and 4 KB of cache footprint
  // for roughly one fewer q-addition per chunk on every verify.
  std::array<Jacobian, 128> jac;
  Jacobian base = ToJacobian(public_key);
  for (int j = 0; j < 4; ++j) {
    Jacobian twice = base;
    DoubleFast(twice);
    jac[32 * j] = base;
    for (int i = 1; i < 32; ++i) {
      jac[32 * j + i] = jac[32 * j + i - 1];
      AddJacobianFast(jac[32 * j + i], twice);
    }
    if (j < 3) {
      for (int k = 0; k < 64; ++k) {
        DoubleFast(base);
      }
    }
  }
  NormalizeBatch(jac, key.odd_.data());
  return key;
}

// --- Batch verification ------------------------------------------------------

struct P256::BatchItem {
  const PreparedKey* key = nullptr;
  U256 u1_mont;        // z/s, Montgomery domain of n
  U256 u2_mont;        // r/s, Montgomery domain of n
  AffineMont r_point;  // recovered nonce point R, fp Montgomery affine
  bool batchable = false;
};

namespace {

// a^((p+1)/4) mod p — the square root candidate for p ≡ 3 (mod 4).
// Montgomery domain in and out; the caller re-squares to confirm a was a
// quadratic residue.
U256 SqrtCandidateFp(const U256& a_mont, const U256& one_mont) {
  static const U256 e = U256::FromHexString(
      "3fffffffc000000040000000000000000000000040000000"
      "0000000000000000");
  U256 acc = one_mont;
  bool started = false;
  for (int i = 255; i >= 0; --i) {
    if (started) {
      acc = Fp::Sqr(acc);
    }
    if (e.Bit(i)) {
      acc = started ? Fp::Mul(acc, a_mont) : a_mont;
      started = true;
    }
  }
  return acc;
}

uint64_t Load64BigEndian(const Digest& d) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | d[static_cast<size_t>(i)];
  }
  return v;
}

}  // namespace

bool P256::BatchCombinationHolds(const BatchItem* items,
                                 std::span<const size_t> idxs) const {
  // Fiat–Shamir coefficient seed over the sub-batch transcript: the exact
  // (Q, u1, u2, R) tuples the combination will check.  Deterministic, so
  // replays and bisection retries are reproducible.
  Sha256 transcript;
  transcript.Update(ToBytes("bolted-p256-batch-v1"));
  for (const size_t i : idxs) {
    const BatchItem& it = items[i];
    transcript.Update(it.key->point().x.ToBytes());
    transcript.Update(it.key->point().y.ToBytes());
    transcript.Update(it.u1_mont.ToBytes());
    transcript.Update(it.u2_mont.ToBytes());
    transcript.Update(it.r_point.x.ToBytes());
    transcript.Update(it.r_point.y.ToBytes());
  }
  const Digest seed = transcript.Finish();

  // Per item: the 256-bit scalar cᵢ·u2ᵢ split limb-wise over the four
  // PreparedKey table groups (width-7 NAF), and the 64-bit cᵢ itself on
  // Rᵢ (width-4 NAF over odd multiples 1,3,5,7 of R, normalized to
  // affine in one Montgomery-trick batch below).
  const size_t m = idxs.size();
  std::vector<int8_t> q_digits(m * 4 * static_cast<size_t>(kNafDigits));
  std::vector<int8_t> r_digits(m * static_cast<size_t>(kNafDigits));
  std::vector<Jacobian> r_jac(m * 4);
  std::vector<AffineMont> r_tab(m * 4);
  U256 a_mont = U256::Zero();  // Σ cᵢ·u1ᵢ, Montgomery domain of n
  int top = 0;
  for (size_t s = 0; s < m; ++s) {
    const BatchItem& it = items[idxs[s]];
    Bytes c_input = DigestBytes(seed);
    AppendU32(c_input, static_cast<uint32_t>(s));
    uint64_t c64 = Load64BigEndian(Sha256::Hash(c_input));
    if (c64 == 0) {
      c64 = 1;
    }
    const U256 c{{c64, 0, 0, 0}};
    const U256 c_mont = fn_.ToMont(c);
    a_mont = field::Fn::Add(a_mont, field::Fn::Mul(c_mont, it.u1_mont));
    const U256 q_scalar = fn_.FromMont(field::Fn::Mul(c_mont, it.u2_mont));
    for (int j = 0; j < 4; ++j) {
      const U256 chunk{{q_scalar.limb[static_cast<size_t>(j)], 0, 0, 0}};
      const int t = RecodeWnaf(
          chunk, /*width=*/7,
          &q_digits[(s * 4 + static_cast<size_t>(j)) * static_cast<size_t>(kNafDigits)]);
      top = t > top ? t : top;
    }
    const int t = RecodeWnaf(c, /*width=*/4,
                             &r_digits[s * static_cast<size_t>(kNafDigits)]);
    top = t > top ? t : top;

    // Odd multiples 1,3,5,7 of R.  R has order n (it passed the on-curve
    // check and the curve group is prime), so none of them is infinity.
    Jacobian base{it.r_point.x, it.r_point.y, fp_.one_mont()};
    Jacobian twice = base;
    DoubleFast(twice);
    r_jac[s * 4] = base;
    for (size_t k = 1; k < 4; ++k) {
      r_jac[s * 4 + k] = r_jac[s * 4 + k - 1];
      AddJacobianFast(r_jac[s * 4 + k], twice);
    }
  }
  NormalizeBatch(r_jac, r_tab.data());

  // One shared doubling chain for every item's Q and R terms; the ΣG term
  // rides the fixed-base comb afterwards with no doublings of its own.
  Jacobian sum{};
  for (int i = top; i >= 0; --i) {
    DoubleFast(sum);
    for (size_t s = 0; s < m; ++s) {
      const BatchItem& it = items[idxs[s]];
      for (size_t j = 0; j < 4; ++j) {
        const int d =
            q_digits[(s * 4 + j) * static_cast<size_t>(kNafDigits) + static_cast<size_t>(i)];
        if (d != 0) {
          const size_t index =
              32 * j + static_cast<size_t>((d < 0 ? -d : d) - 1) / 2;
          AddMixed(sum, it.key->odd_[index], /*negate=*/d < 0);
        }
      }
      const int d =
          r_digits[s * static_cast<size_t>(kNafDigits) + static_cast<size_t>(i)];
      if (d != 0) {
        const size_t index = s * 4 + static_cast<size_t>((d < 0 ? -d : d) - 1) / 2;
        // The Rᵢ term enters negated: Σ cᵢ(u1ᵢG + u2ᵢQᵢ − Rᵢ) = O.
        AddMixed(sum, r_tab[index], /*negate=*/d > 0);
      }
    }
  }
  const U256 a = fn_.FromMont(a_mont);
  for (int w = 0; w < kCombWindows; ++w) {
    const uint64_t d = CombWindow(a, w);
    if (d != 0) {
      AddMixed(sum, fixed_[static_cast<size_t>(w) * kCombRow + d - 1],
               /*negate=*/false);
    }
  }
  return sum.z.IsZero();
}

bool P256::VerifyBatchRange(const BatchItem* items, const BatchEntry* entries,
                            bool* ok, size_t lo, size_t hi,
                            BatchStats* stats) const {
  std::vector<size_t> idxs;
  idxs.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    if (items[i].batchable) {
      idxs.push_back(i);
    }
  }
  if (idxs.empty()) {
    return true;  // every entry in range already settled as invalid
  }
  if (idxs.size() == 1) {
    const size_t i = idxs[0];
    ok[i] = Verify(*entries[i].key, entries[i].message_hash, entries[i].signature);
    return ok[i];
  }
  if (BatchCombinationHolds(items, idxs)) {
    for (const size_t i : idxs) {
      ok[i] = true;
    }
    return true;
  }
  // The combination failed: at least one entry in the range is bad (or
  // carried a wrong R).  Bisect; singletons fall back to the exact
  // sequential verify, so no wrong verdict can survive.
  ++stats->bisections;
  const size_t mid = lo + (hi - lo) / 2;
  const bool left = VerifyBatchRange(items, entries, ok, lo, mid, stats);
  const bool right = VerifyBatchRange(items, entries, ok, mid, hi, stats);
  return left && right;
}

bool P256::VerifyBatch(std::span<const BatchEntry> entries, bool* ok,
                       BatchStats* stats) const {
  const size_t n = entries.size();
  if (n == 0) {
    return true;
  }
  BatchStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  if (n == 1) {
    ok[0] = entries[0].key != nullptr &&
            Verify(*entries[0].key, entries[0].message_hash, entries[0].signature);
    return ok[0];
  }

  const auto on_curve_mont = [&](const U256& x_mont, const U256& y_mont) {
    const U256 y2 = Fp::Sqr(y_mont);
    const U256 x3 = Fp::Mul(Fp::Sqr(x_mont), x_mont);
    return y2 == Fp::Add(Fp::Sub(x3, Fp::Mul(three_mont_, x_mont)), b_mont_);
  };
  // Recovers the nonce point R for one entry: accept the signer's hint if
  // it validates, otherwise take the even-y square root at x = r (then
  // x = r + n when that stays below p).  Returns false when no curve
  // point matches — which proves the signature invalid outright.
  const auto recover_r = [&](const BatchEntry& e, AffineMont* out) -> bool {
    if (e.r_hint != nullptr) {
      const EcPoint& h = *e.r_hint;
      if (!h.infinity && h.x < p_ && h.y < p_ &&
          fn_.Reduce(h.x) == e.signature.r) {
        const U256 hx = fp_.ToMont(h.x);
        const U256 hy = fp_.ToMont(h.y);
        if (on_curve_mont(hx, hy)) {
          out->x = hx;
          out->y = hy;
          return true;
        }
      }
      ++stats->rejected_hints;
    }
    ++stats->sqrt_recoveries;
    for (int attempt = 0; attempt < 2; ++attempt) {
      U256 x = e.signature.r;
      if (attempt == 1 && (AddCarry(e.signature.r, n_, x) != 0 || x >= p_)) {
        break;
      }
      const U256 x_mont = fp_.ToMont(x);
      const U256 rhs = Fp::Add(
          Fp::Sub(Fp::Mul(Fp::Sqr(x_mont), x_mont), Fp::Mul(three_mont_, x_mont)),
          b_mont_);
      U256 y_mont = SqrtCandidateFp(rhs, fp_.one_mont());
      if (Fp::Sqr(y_mont) != rhs) {
        continue;  // x is not on the curve
      }
      if (fp_.FromMont(y_mont).IsOdd()) {
        y_mont = Fp::Neg(y_mont);
      }
      out->x = x_mont;
      out->y = y_mont;
      return true;
    }
    return false;
  };

  // Shape checks plus one batched inversion for every s: prefix products
  // in the Montgomery domain of n, then a single divstep inverse peeled
  // back into the individual w = s⁻¹ values.
  std::vector<BatchItem> items(n);
  std::vector<U256> s_mont(n);
  std::vector<U256> prefix(n);
  U256 acc = fn_.one_mont();
  for (size_t i = 0; i < n; ++i) {
    const BatchEntry& e = entries[i];
    ok[i] = false;
    if (e.key == nullptr || e.signature.r.IsZero() || e.signature.s.IsZero() ||
        e.signature.r >= n_ || e.signature.s >= n_) {
      continue;  // malformed; ok[i] = false is already exact
    }
    items[i].key = e.key;
    s_mont[i] = fn_.ToMont(e.signature.s);
    prefix[i] = acc;
    acc = field::Fn::Mul(acc, s_mont[i]);
  }
  U256 inv = InvMontFn(acc, r2_fn_);
  for (size_t i = n; i-- > 0;) {
    if (items[i].key == nullptr) {
      continue;
    }
    const BatchEntry& e = entries[i];
    const U256 w_mont = field::Fn::Mul(inv, prefix[i]);
    inv = field::Fn::Mul(inv, s_mont[i]);
    const U256 z = fn_.Reduce(U256::FromBytes(DigestView(e.message_hash)));
    items[i].u1_mont = field::Fn::Mul(fn_.ToMont(z), w_mont);
    items[i].u2_mont = field::Fn::Mul(fn_.ToMont(e.signature.r), w_mont);
    items[i].batchable = recover_r(e, &items[i].r_point);
  }

  VerifyBatchRange(items.data(), entries.data(), ok, 0, n, stats);
  bool all = true;
  for (size_t i = 0; i < n; ++i) {
    all = all && ok[i];
  }
  return all;
}

std::optional<Bytes> P256::SharedSecret(const U256& private_key,
                                        const EcPoint& peer) const {
  if (!IsOnCurve(peer) || peer.infinity) {
    return std::nullopt;
  }
  const EcPoint product = Multiply(private_key, peer);
  if (product.infinity) {
    return std::nullopt;
  }
  return product.x.ToBytes();
}

}  // namespace bolted::crypto
