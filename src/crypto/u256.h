// Fixed-width 256-bit integers: carries, shifts and the divstep modular
// inverse.
//
// This is the integer substrate under the P-256 implementation used by
// the TPM emulator's EK/AIK signatures (quotes) and the Keylime bootstrap
// key exchange.  Modular arithmetic lives one layer up, in the
// compile-time Montgomery fields of p256_field.h.  Limbs are
// little-endian uint64s.

#ifndef SRC_CRYPTO_U256_H_
#define SRC_CRYPTO_U256_H_

#include <array>
#include <cstdint>

#include "src/crypto/bytes.h"

namespace bolted::crypto {

struct U256 {
  std::array<uint64_t, 4> limb = {0, 0, 0, 0};

  static U256 Zero() { return U256{}; }
  static U256 One() { return U256{{1, 0, 0, 0}}; }
  // Parses a 64-hex-digit big-endian string (no prefix).  Asserts on
  // malformed input; used for embedded curve constants and tests.
  static U256 FromHexString(std::string_view hex);
  // Big-endian bytes; short inputs are left-padded, long inputs truncated
  // to the low 256 bits (leading bytes dropped).
  static U256 FromBytes(ByteView be_bytes);

  Bytes ToBytes() const;  // 32 bytes, big-endian
  std::string ToHexString() const;

  bool IsZero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool IsOdd() const { return limb[0] & 1; }
  bool Bit(int i) const { return (limb[i / 64] >> (i % 64)) & 1; }

  auto operator<=>(const U256& other) const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != other.limb[i]) {
        return limb[i] <=> other.limb[i];
      }
    }
    return std::strong_ordering::equal;
  }
  bool operator==(const U256&) const = default;
};

// out = a + b, returns carry.
uint64_t AddCarry(const U256& a, const U256& b, U256& out);
// out = a - b, returns borrow.
uint64_t SubBorrow(const U256& a, const U256& b, U256& out);

// (a >> 1) with `top` shifted in as the new bit 255 — the halving step of
// wNAF recoding (p256.cc), where adding back a negative digit can carry
// the running scalar into bit 256.
inline U256 ShiftRight1(const U256& a, uint64_t top = 0) {
  U256 out;
  for (int i = 0; i < 3; ++i) {
    out.limb[static_cast<size_t>(i)] =
        (a.limb[static_cast<size_t>(i)] >> 1) | (a.limb[static_cast<size_t>(i) + 1] << 63);
  }
  out.limb[3] = (a.limb[3] >> 1) | (top << 63);
  return out;
}

// a^-1 mod m for odd m and gcd(a, m) = 1, via signed-62-limb divsteps
// (Bernstein–Yang safegcd, variable-time): the gcd state collapses through
// 64-bit transition matrices instead of one U256 pass per bit.  Plain
// (non Montgomery) domain; requires a < m; returns zero for a = 0.
U256 ModInverseOdd(const U256& a, const U256& m);

}  // namespace bolted::crypto

#endif  // SRC_CRYPTO_U256_H_
