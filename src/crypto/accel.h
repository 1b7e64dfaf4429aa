// Internal declarations for the scalar reference kernels and their
// ISA-accelerated counterparts.  Call sites must gate the accelerated
// entry points on cpu::Get(): on non-x86 builds (or CPUs without the
// feature) they are stubs that must never be reached.
//
// Every accelerated kernel is byte-for-byte equivalent to its scalar
// reference; tests/crypto_test.cc verifies this on NIST vectors and
// random sweeps with both backends.

#ifndef SRC_CRYPTO_ACCEL_H_
#define SRC_CRYPTO_ACCEL_H_

#include <cstddef>
#include <cstdint>

namespace bolted::crypto::internal {

// ---------------------------------------------------------------- SHA-256

// FIPS 180-4 round constants (defined in sha256.cc, shared with the
// SHA-NI schedule).
extern const uint32_t kSha256K[64];

using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t nblocks);

// Portable reference compression over `nblocks` consecutive 64-byte blocks.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* blocks, size_t nblocks);
// SHA-NI compression (requires cpu::Get().shani).
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

// ------------------------------------------------------------- AES-256-NI
//
// Round keys travel as the 240-byte serialized schedule (15 round keys of
// 16 bytes, encryption order); the decryption schedule is the AESIMC
// ("equivalent inverse cipher") transform of the reversed encryption
// schedule.  All entry points require cpu::Get().aesni.

inline constexpr size_t kAesRoundKeyBytes = 240;  // (14 + 1) * 16

void AesNiMakeDecryptKeys(const uint8_t enc_rk[kAesRoundKeyBytes],
                          uint8_t dec_rk[kAesRoundKeyBytes]);
// One 16-byte block (Aes256::EncryptBlock / DecryptBlock).
void AesNiEncryptBlock(const uint8_t enc_rk[kAesRoundKeyBytes], const uint8_t in[16],
                       uint8_t out[16]);
void AesNiDecryptBlock(const uint8_t dec_rk[kAesRoundKeyBytes], const uint8_t in[16],
                       uint8_t out[16]);

// One XTS sector, in place.  `data_rk` is the data-key schedule matching
// the direction (encryption schedule when encrypt, AESIMC decryption
// schedule otherwise); `tweak_rk` is always an encryption schedule.
// len must be a nonzero multiple of 16.
void AesNiXtsSector(const uint8_t data_rk[kAesRoundKeyBytes],
                    const uint8_t tweak_rk[kAesRoundKeyBytes], uint64_t sector_number,
                    uint8_t* data, size_t len, bool encrypt);

// GCM CTR mode: out = in XOR AES-CTR keystream, counter block =
// nonce (12 bytes) || big-endian 32-bit counter starting at `counter`.
void AesNiCtr32Xor(const uint8_t enc_rk[kAesRoundKeyBytes], const uint8_t nonce[12],
                   uint32_t counter, const uint8_t* in, uint8_t* out, size_t len);

// ----------------------------------------------------------------- GHASH

// Precomputed H-power table H^1..H^4 for the 4-block aggregated reduction.
inline constexpr size_t kGhashTableBytes = 64;

// h is E(K, 0^128) in GCM wire order (big-endian).  Requires pclmul.
void GhashPrecompute(const uint8_t h[16], uint8_t table[kGhashTableBytes]);
// Absorbs `len` bytes (zero-padding the final partial block) into the
// 16-byte GHASH state y.  Requires pclmul.
void GhashUpdateClmul(const uint8_t table[kGhashTableBytes], uint8_t y[16],
                      const uint8_t* data, size_t len);

}  // namespace bolted::crypto::internal

#endif  // SRC_CRYPTO_ACCEL_H_
