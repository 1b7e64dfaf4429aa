#include "src/crypto/u256.h"

#include <array>
#include <bit>
#include <cassert>

namespace bolted::crypto {

// --- Divstep modular inverse (variable time) -------------------------------
//
// Bernstein–Yang "safegcd" with signed 62-bit limbs: the (f, g) gcd state
// and the (d, e) Bézout state are advanced 62 divsteps at a time through a
// 2x2 matrix of int64 coefficients computed entirely in registers from the
// low 64 bits of f and g.  Each 62-step batch costs a handful of 128-bit
// multiply-accumulates instead of 62 full-width passes, and the
// variable-time inner loop skips runs of zero bits with a count-trailing-
// zeros jump plus an 8-bit negative-inverse table.
namespace {

constexpr int64_t kM62 = static_cast<int64_t>(UINT64_MAX >> 2);

// 5 signed limbs of 62 bits (little-endian); the top limb carries the sign.
struct Signed62 {
  int64_t v[5];

  bool IsZero() const { return (v[0] | v[1] | v[2] | v[3] | v[4]) == 0; }
};

Signed62 ToSigned62(const U256& a) {
  return {{static_cast<int64_t>(a.limb[0] & static_cast<uint64_t>(kM62)),
           static_cast<int64_t>(((a.limb[0] >> 62) | (a.limb[1] << 2)) &
                                static_cast<uint64_t>(kM62)),
           static_cast<int64_t>(((a.limb[1] >> 60) | (a.limb[2] << 4)) &
                                static_cast<uint64_t>(kM62)),
           static_cast<int64_t>(((a.limb[2] >> 58) | (a.limb[3] << 6)) &
                                static_cast<uint64_t>(kM62)),
           static_cast<int64_t>(a.limb[3] >> 56)}};
}

U256 FromSigned62(const Signed62& a) {
  const uint64_t v0 = static_cast<uint64_t>(a.v[0]);
  const uint64_t v1 = static_cast<uint64_t>(a.v[1]);
  const uint64_t v2 = static_cast<uint64_t>(a.v[2]);
  const uint64_t v3 = static_cast<uint64_t>(a.v[3]);
  const uint64_t v4 = static_cast<uint64_t>(a.v[4]);
  U256 r;
  r.limb[0] = v0 | (v1 << 62);
  r.limb[1] = (v1 >> 2) | (v2 << 60);
  r.limb[2] = (v2 >> 4) | (v3 << 58);
  r.limb[3] = (v3 >> 6) | (v4 << 56);
  return r;
}

// kNegInv256[i] = -(2i+1)^-1 mod 256: with w = (g * kNegInv256[(f>>1)&127])
// masked to b bits, g + w*f clears the low b (<= 8) bits of g in one step.
constexpr std::array<uint8_t, 128> MakeNegInv256() {
  std::array<uint8_t, 128> table{};
  for (int i = 0; i < 128; ++i) {
    const uint8_t f = static_cast<uint8_t>(2 * i + 1);
    uint8_t x = f;  // Newton: x_{k+1} = x_k (2 - f x_k) doubles correct bits
    x = static_cast<uint8_t>(x * (2 - f * x));
    x = static_cast<uint8_t>(x * (2 - f * x));
    x = static_cast<uint8_t>(x * (2 - f * x));
    table[static_cast<size_t>(i)] = static_cast<uint8_t>(-x);
  }
  return table;
}
constexpr std::array<uint8_t, 128> kNegInv256 = MakeNegInv256();

struct Trans2x2 {
  int64_t u, v, q, r;
};

// Runs 62 divsteps on the low limbs of (f, g); fills t with the transition
// matrix (entries bounded by 2^62 in magnitude) such that the full-width
// update is [f'; g'] = t * [f; g] / 2^62.  Returns the updated eta
// (negated divstep delta).
int64_t Divsteps62Var(int64_t eta, uint64_t f0, uint64_t g0, Trans2x2* t) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0;
  uint64_t g = g0;
  int i = 62;
  for (;;) {
    // Skip the run of zero bits at the bottom of g (capped at the i steps
    // remaining in this batch).
    const int zeros =
        std::countr_zero(g | (~uint64_t{0} << (i == 64 ? 63 : i)));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) {
      break;
    }
    // f and g are both odd here.
    if (eta < 0) {
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = ~tmp + 1;
      tmp = u;
      u = q;
      q = ~tmp + 1;
      tmp = v;
      v = r;
      r = ~tmp + 1;
    }
    // Clear up to 8 of g's low bits at once: limit is bounded by the
    // remaining step budget and by eta + 1 (the number of divsteps the
    // current delta sign permits without another swap).
    const int limit = eta + 1 > i ? i : static_cast<int>(eta) + 1;
    const uint64_t mask = (UINT64_MAX >> (64 - limit)) & 255u;
    const uint64_t w = (g * kNegInv256[(f >> 1) & 127]) & mask;
    g += w * f;
    q += static_cast<int64_t>(w) * static_cast<int64_t>(u);
    r += static_cast<int64_t>(w) * static_cast<int64_t>(v);
  }
  t->u = static_cast<int64_t>(u);
  t->v = static_cast<int64_t>(v);
  t->q = static_cast<int64_t>(q);
  t->r = static_cast<int64_t>(r);
  return eta;
}

// (f, g) <- t * (f, g) / 2^62, exact (the low 62 bits cancel by
// construction of t).
void UpdateFg62(Signed62* f, Signed62* g, const Trans2x2& t) {
  __int128 cf = static_cast<__int128>(t.u) * f->v[0] +
                static_cast<__int128>(t.v) * g->v[0];
  __int128 cg = static_cast<__int128>(t.q) * f->v[0] +
                static_cast<__int128>(t.r) * g->v[0];
  cf >>= 62;
  cg >>= 62;
  for (int k = 1; k < 5; ++k) {
    cf += static_cast<__int128>(t.u) * f->v[k] +
          static_cast<__int128>(t.v) * g->v[k];
    cg += static_cast<__int128>(t.q) * f->v[k] +
          static_cast<__int128>(t.r) * g->v[k];
    f->v[k - 1] = static_cast<int64_t>(cf) & kM62;
    g->v[k - 1] = static_cast<int64_t>(cg) & kM62;
    cf >>= 62;
    cg >>= 62;
  }
  f->v[4] = static_cast<int64_t>(cf);
  g->v[4] = static_cast<int64_t>(cg);
}

// (d, e) <- t * (d, e) / 2^62 mod m: multiples of m are added to make the
// division exact, keeping both in the range (-2m, m).
void UpdateDe62(Signed62* d, Signed62* e, const Trans2x2& t,
                const Signed62& modulus, uint64_t m_inv62) {
  const uint64_t mask62 = UINT64_MAX >> 2;
  const int64_t sd = d->v[4] >> 63;
  const int64_t se = e->v[4] >> 63;
  int64_t md = (t.u & sd) + (t.v & se);
  int64_t me = (t.q & sd) + (t.r & se);
  __int128 cd = static_cast<__int128>(t.u) * d->v[0] +
                static_cast<__int128>(t.v) * e->v[0];
  __int128 ce = static_cast<__int128>(t.q) * d->v[0] +
                static_cast<__int128>(t.r) * e->v[0];
  md -= static_cast<int64_t>(
      (m_inv62 * static_cast<uint64_t>(cd) + static_cast<uint64_t>(md)) &
      mask62);
  me -= static_cast<int64_t>(
      (m_inv62 * static_cast<uint64_t>(ce) + static_cast<uint64_t>(me)) &
      mask62);
  cd += static_cast<__int128>(modulus.v[0]) * md;
  ce += static_cast<__int128>(modulus.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (int k = 1; k < 5; ++k) {
    cd += static_cast<__int128>(t.u) * d->v[k] +
          static_cast<__int128>(t.v) * e->v[k] +
          static_cast<__int128>(modulus.v[k]) * md;
    ce += static_cast<__int128>(t.q) * d->v[k] +
          static_cast<__int128>(t.r) * e->v[k] +
          static_cast<__int128>(modulus.v[k]) * me;
    d->v[k - 1] = static_cast<int64_t>(cd) & kM62;
    e->v[k - 1] = static_cast<int64_t>(ce) & kM62;
    cd >>= 62;
    ce >>= 62;
  }
  d->v[4] = static_cast<int64_t>(cd);
  e->v[4] = static_cast<int64_t>(ce);
}

// Adds m (in place) while negative, with limb renormalization.
void MakeNonNegative62(Signed62* a, const Signed62& modulus) {
  while (a->v[4] < 0) {
    int64_t carry = 0;
    for (int k = 0; k < 4; ++k) {
      const int64_t sum = a->v[k] + modulus.v[k] + carry;
      a->v[k] = sum & kM62;
      carry = sum >> 62;
    }
    a->v[4] += modulus.v[4] + carry;
  }
}

}  // namespace

U256 ModInverseOdd(const U256& a, const U256& m) {
  assert(m.IsOdd());
  if (a.IsZero()) {
    return U256::Zero();
  }
  const Signed62 modulus = ToSigned62(m);
  Signed62 f = modulus;
  Signed62 g = ToSigned62(a);
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  // m^-1 mod 2^62 by Newton iteration (m odd).
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - m.limb[0] * inv;
  }
  const uint64_t m_inv62 = inv & (UINT64_MAX >> 2);

  int64_t eta = -1;
  // Typical inputs terminate in 9 or 10 batches; the variable-time jumps
  // make the worst case longer than the constant-time 724-divstep bound,
  // so loop to a far-out safety cap instead of the constant-time count.
  for (int iter = 0; iter < 40 && !g.IsZero(); ++iter) {
    Trans2x2 t;
    eta = Divsteps62Var(eta, static_cast<uint64_t>(f.v[0]),
                        static_cast<uint64_t>(g.v[0]), &t);
    UpdateDe62(&d, &e, t, modulus, m_inv62);
    UpdateFg62(&f, &g, t);
  }
  assert(g.IsZero());

  // f is now +-gcd(a, m) = +-1; fold its sign into d and lift d into
  // [0, m) entirely in the signed-62 domain — d can sit anywhere in
  // (-2m, m), and values past 2^256 would not survive the repack.  First
  // add m while negative (brings d to (-m, m) before the sign flip can
  // push it past m), then negate, then add m once more if needed.
  MakeNonNegative62(&d, modulus);
  if (f.v[4] < 0) {
    for (int k = 0; k < 5; ++k) {
      d.v[k] = -d.v[k];
    }
    int64_t carry = 0;
    for (int k = 0; k < 4; ++k) {
      const int64_t val = d.v[k] + carry;
      d.v[k] = val & kM62;
      carry = val >> 62;
    }
    d.v[4] += carry;
    MakeNonNegative62(&d, modulus);
  }
  return FromSigned62(d);
}

U256 U256::FromHexString(std::string_view hex) {
  assert(hex.size() <= 64);
  Bytes bytes = FromHex(hex);
  assert(bytes.size() * 2 == hex.size());
  return FromBytes(bytes);
}

U256 U256::FromBytes(ByteView be_bytes) {
  U256 out;
  // Use the trailing 32 bytes (low 256 bits).
  const size_t n = be_bytes.size() > 32 ? 32 : be_bytes.size();
  const ByteView tail = be_bytes.subspan(be_bytes.size() - n, n);
  for (size_t i = 0; i < n; ++i) {
    const size_t bit_index = (n - 1 - i) * 8;
    out.limb[bit_index / 64] |= static_cast<uint64_t>(tail[i]) << (bit_index % 64);
  }
  return out;
}

Bytes U256::ToBytes() const {
  Bytes out(32);
  for (int i = 0; i < 32; ++i) {
    const int bit_index = (31 - i) * 8;
    out[i] = static_cast<uint8_t>(limb[bit_index / 64] >> (bit_index % 64));
  }
  return out;
}

std::string U256::ToHexString() const { return ToHex(ToBytes()); }

uint64_t AddCarry(const U256& a, const U256& b, U256& out) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return carry;
}

uint64_t SubBorrow(const U256& a, const U256& b, U256& out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 diff = static_cast<unsigned __int128>(a.limb[i]) -
                                   b.limb[i] - borrow;
    out.limb[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  return borrow;
}

}  // namespace bolted::crypto
