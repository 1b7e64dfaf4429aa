// AES-NI / PCLMULQDQ kernels: single-block encrypt/decrypt, the XTS
// sector transform and GCM CTR keystream (both 8 lanes wide), and
// carry-less-multiply GHASH with a precomputed H-power table (4-block
// aggregated reduction).
//
// Compiled with -maes -mpclmul -msse4.1 -mssse3; reachable only through
// the cpu::Get() dispatch, so binaries still run on CPUs without the
// extensions.  The 8-lane loops pay off only when every lane stays in a
// register across the 14 rounds, which GCC does at -O3 and not at -O2,
// so this file is always built -O3 (src/CMakeLists.txt) and
// scripts/check.sh counts the unrolled rounds in the object file.  The
// GHASH reduction follows the classic Intel CLMUL white paper
// (bit-reflected operands, shift-left-one then fold modulo
// x^128 + x^7 + x^2 + x + 1).

#include "src/crypto/accel.h"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace bolted::crypto::internal {
namespace {

constexpr int kRounds = 14;  // AES-256

// Encrypts `Lanes` blocks in parallel through the full round pipeline.
template <int Lanes>
inline void EncryptLanes(const __m128i rk[kRounds + 1], __m128i b[Lanes]) {
  for (int j = 0; j < Lanes; ++j) b[j] = _mm_xor_si128(b[j], rk[0]);
  for (int r = 1; r < kRounds; ++r) {
    for (int j = 0; j < Lanes; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
  }
  for (int j = 0; j < Lanes; ++j) b[j] = _mm_aesenclast_si128(b[j], rk[kRounds]);
}

template <int Lanes>
inline void DecryptLanes(const __m128i rk[kRounds + 1], __m128i b[Lanes]) {
  for (int j = 0; j < Lanes; ++j) b[j] = _mm_xor_si128(b[j], rk[0]);
  for (int r = 1; r < kRounds; ++r) {
    for (int j = 0; j < Lanes; ++j) b[j] = _mm_aesdec_si128(b[j], rk[r]);
  }
  for (int j = 0; j < Lanes; ++j) b[j] = _mm_aesdeclast_si128(b[j], rk[kRounds]);
}

inline void LoadSchedule(const uint8_t bytes[kAesRoundKeyBytes],
                         __m128i rk[kRounds + 1]) {
  for (int r = 0; r <= kRounds; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16 * r));
  }
}

// Multiply the XTS tweak by x in GF(2^128) (little-endian 128-bit shift
// left by one with the 0x87 feedback), entirely in SSE.
inline __m128i XtsMulAlpha(__m128i t) {
  __m128i carries = _mm_srai_epi32(t, 31);  // msb of each dword, sign-spread
  // Rotate dword carries up one lane; the carry out of lane 3 wraps to
  // lane 0 where it becomes the 0x87 feedback.
  carries = _mm_shuffle_epi32(carries, _MM_SHUFFLE(2, 1, 0, 3));
  carries = _mm_and_si128(carries, _mm_set_epi32(1, 1, 1, 0x87));
  return _mm_xor_si128(_mm_slli_epi32(t, 1), carries);
}

// ------------------------------------------------------------------ GHASH

// Accumulates the 256-bit carry-less product a*b into (lo, hi) using
// Karatsuba-free four-multiply schoolbook.
inline void ClmulAccumulate(__m128i a, __m128i b, __m128i* lo, __m128i* hi) {
  const __m128i t0 = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                              _mm_clmulepi64_si128(a, b, 0x01));
  const __m128i t3 = _mm_clmulepi64_si128(a, b, 0x11);
  *lo = _mm_xor_si128(*lo, _mm_xor_si128(t0, _mm_slli_si128(mid, 8)));
  *hi = _mm_xor_si128(*hi, _mm_xor_si128(t3, _mm_srli_si128(mid, 8)));
}

// Reduces a 256-bit product (in bit-reflected GCM representation) to 128
// bits: shift left one, then fold modulo the GHASH polynomial.
inline __m128i GfReduce(__m128i lo, __m128i hi) {
  // Shift the 256-bit value (hi:lo) left by one bit.
  __m128i lo_carry = _mm_srli_epi32(lo, 31);
  __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  const __m128i cross = _mm_srli_si128(lo_carry, 12);  // lo bit 127 -> hi bit 0
  lo_carry = _mm_slli_si128(lo_carry, 4);
  hi_carry = _mm_slli_si128(hi_carry, 4);
  lo = _mm_or_si128(lo, lo_carry);
  hi = _mm_or_si128(hi, _mm_or_si128(hi_carry, cross));

  // Fold lo into hi modulo x^128 + x^127 + x^126 + x^121 + 1 (reflected).
  __m128i a = _mm_slli_epi32(lo, 31);
  __m128i b = _mm_slli_epi32(lo, 30);
  __m128i c = _mm_slli_epi32(lo, 25);
  a = _mm_xor_si128(a, _mm_xor_si128(b, c));
  const __m128i a_hi = _mm_srli_si128(a, 4);
  a = _mm_slli_si128(a, 12);
  lo = _mm_xor_si128(lo, a);

  __m128i d = _mm_srli_epi32(lo, 1);
  __m128i e = _mm_srli_epi32(lo, 2);
  __m128i f = _mm_srli_epi32(lo, 7);
  d = _mm_xor_si128(d, _mm_xor_si128(e, f));
  d = _mm_xor_si128(d, a_hi);
  lo = _mm_xor_si128(lo, d);
  return _mm_xor_si128(hi, lo);
}

inline __m128i GfMul(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  ClmulAccumulate(a, b, &lo, &hi);
  return GfReduce(lo, hi);
}

inline __m128i ByteSwap(__m128i x) {
  const __m128i rev =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
  return _mm_shuffle_epi8(x, rev);
}

inline __m128i LoadBlockBE(const uint8_t* p) {
  return ByteSwap(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

void AesNiMakeDecryptKeys(const uint8_t enc_rk[kAesRoundKeyBytes],
                          uint8_t dec_rk[kAesRoundKeyBytes]) {
  __m128i enc[kRounds + 1];
  LoadSchedule(enc_rk, enc);
  __m128i* out = reinterpret_cast<__m128i*>(dec_rk);
  _mm_storeu_si128(out + 0, enc[kRounds]);
  for (int r = 1; r < kRounds; ++r) {
    _mm_storeu_si128(out + r, _mm_aesimc_si128(enc[kRounds - r]));
  }
  _mm_storeu_si128(out + kRounds, enc[0]);
}

void AesNiEncryptBlock(const uint8_t enc_rk[kAesRoundKeyBytes], const uint8_t in[16],
                       uint8_t out[16]) {
  __m128i rk[kRounds + 1];
  LoadSchedule(enc_rk, rk);
  __m128i b[1] = {_mm_loadu_si128(reinterpret_cast<const __m128i*>(in))};
  EncryptLanes<1>(rk, b);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b[0]);
}

void AesNiDecryptBlock(const uint8_t dec_rk[kAesRoundKeyBytes], const uint8_t in[16],
                       uint8_t out[16]) {
  __m128i rk[kRounds + 1];
  LoadSchedule(dec_rk, rk);
  __m128i b[1] = {_mm_loadu_si128(reinterpret_cast<const __m128i*>(in))};
  DecryptLanes<1>(rk, b);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b[0]);
}

void AesNiXtsSector(const uint8_t data_rk[kAesRoundKeyBytes],
                    const uint8_t tweak_rk[kAesRoundKeyBytes], uint64_t sector_number,
                    uint8_t* data, size_t len, bool encrypt) {
  __m128i rk[kRounds + 1];
  __m128i trk[kRounds + 1];
  LoadSchedule(data_rk, rk);
  LoadSchedule(tweak_rk, trk);

  // plain64 IV: little-endian sector number, zero padded, then encrypted
  // under the tweak key.
  __m128i tweak[1] = {_mm_set_epi64x(0, static_cast<long long>(sector_number))};
  EncryptLanes<1>(trk, tweak);
  __m128i t = tweak[0];

  size_t nblocks = len / 16;
  while (nblocks >= 8) {
    __m128i tw[8];
    for (int j = 0; j < 8; ++j) {
      tw[j] = t;
      t = XtsMulAlpha(t);
    }
    __m128i b[8];
    for (int j = 0; j < 8; ++j) {
      b[j] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)), tw[j]);
    }
    if (encrypt) {
      EncryptLanes<8>(rk, b);
    } else {
      DecryptLanes<8>(rk, b);
    }
    for (int j = 0; j < 8; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(data + 16 * j),
                       _mm_xor_si128(b[j], tw[j]));
    }
    data += 128;
    nblocks -= 8;
  }
  while (nblocks-- > 0) {
    __m128i b[1] = {
        _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), t)};
    if (encrypt) {
      EncryptLanes<1>(rk, b);
    } else {
      DecryptLanes<1>(rk, b);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(data), _mm_xor_si128(b[0], t));
    t = XtsMulAlpha(t);
    data += 16;
  }
}

void AesNiCtr32Xor(const uint8_t enc_rk[kAesRoundKeyBytes], const uint8_t nonce[12],
                   uint32_t counter, const uint8_t* in, uint8_t* out, size_t len) {
  __m128i rk[kRounds + 1];
  LoadSchedule(enc_rk, rk);

  uint8_t base_bytes[16] = {};
  std::memcpy(base_bytes, nonce, 12);
  const __m128i base = _mm_loadu_si128(reinterpret_cast<const __m128i*>(base_bytes));

  auto counter_block = [&](uint32_t c) {
    return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(c)), 3);
  };

  while (len >= 128) {
    __m128i b[8];
    for (int j = 0; j < 8; ++j) {
      b[j] = counter_block(counter + static_cast<uint32_t>(j));
    }
    EncryptLanes<8>(rk, b);
    for (int j = 0; j < 8; ++j) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * j));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * j),
                       _mm_xor_si128(x, b[j]));
    }
    counter += 8;
    in += 128;
    out += 128;
    len -= 128;
  }
  while (len > 0) {
    __m128i b[1] = {counter_block(counter++)};
    EncryptLanes<1>(rk, b);
    uint8_t keystream[16];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), b[0]);
    const size_t n = len < 16 ? len : 16;
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(in[i] ^ keystream[i]);
    }
    in += n;
    out += n;
    len -= n;
  }
}

void GhashPrecompute(const uint8_t h[16], uint8_t table[kGhashTableBytes]) {
  const __m128i h1 = LoadBlockBE(h);
  __m128i* out = reinterpret_cast<__m128i*>(table);
  __m128i power = h1;
  _mm_storeu_si128(out + 0, power);  // H^1
  for (int i = 1; i < 4; ++i) {
    power = GfMul(power, h1);
    _mm_storeu_si128(out + i, power);  // H^(i+1)
  }
}

void GhashUpdateClmul(const uint8_t table[kGhashTableBytes], uint8_t y[16],
                      const uint8_t* data, size_t len) {
  const __m128i* powers = reinterpret_cast<const __m128i*>(table);
  const __m128i h1 = _mm_loadu_si128(powers + 0);
  const __m128i h2 = _mm_loadu_si128(powers + 1);
  const __m128i h3 = _mm_loadu_si128(powers + 2);
  const __m128i h4 = _mm_loadu_si128(powers + 3);

  __m128i acc = LoadBlockBE(y);

  // 4-block aggregated reduction:
  //   acc' = ((acc + x1)*H^4 + x2*H^3 + x3*H^2 + x4*H) mod P
  // with one shift-and-fold reduction per group.
  while (len >= 64) {
    __m128i lo = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    ClmulAccumulate(_mm_xor_si128(acc, LoadBlockBE(data)), h4, &lo, &hi);
    ClmulAccumulate(LoadBlockBE(data + 16), h3, &lo, &hi);
    ClmulAccumulate(LoadBlockBE(data + 32), h2, &lo, &hi);
    ClmulAccumulate(LoadBlockBE(data + 48), h1, &lo, &hi);
    acc = GfReduce(lo, hi);
    data += 64;
    len -= 64;
  }
  while (len > 0) {
    uint8_t block[16] = {};
    const size_t n = len < 16 ? len : 16;
    std::memcpy(block, data, n);
    acc = GfMul(_mm_xor_si128(acc, LoadBlockBE(block)), h1);
    data += n;
    len -= n;
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(y), ByteSwap(acc));
}

}  // namespace bolted::crypto::internal

#else  // !x86-64

#include <cstdlib>

namespace bolted::crypto::internal {

// Stubs: the dispatch layer never selects these off x86-64.
void AesNiMakeDecryptKeys(const uint8_t*, uint8_t*) { std::abort(); }
void AesNiEncryptBlock(const uint8_t*, const uint8_t*, uint8_t*) { std::abort(); }
void AesNiDecryptBlock(const uint8_t*, const uint8_t*, uint8_t*) { std::abort(); }
void AesNiXtsSector(const uint8_t*, const uint8_t*, uint64_t, uint8_t*, size_t,
                    bool) {
  std::abort();
}
void AesNiCtr32Xor(const uint8_t*, const uint8_t*, uint32_t, const uint8_t*,
                   uint8_t*, size_t) {
  std::abort();
}
void GhashPrecompute(const uint8_t*, uint8_t*) { std::abort(); }
void GhashUpdateClmul(const uint8_t*, uint8_t*, const uint8_t*, size_t) {
  std::abort();
}

}  // namespace bolted::crypto::internal

#endif
