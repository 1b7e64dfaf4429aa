// AES-256 block cipher (FIPS 197).
//
// Byte-oriented reference implementation plus an AES-NI backend picked at
// construction via the cpu feature probe (src/crypto/cpu.h).  The inverse
// S-box and the decryption key schedule are derived at run time from the
// forward tables, keeping the embedded constant surface to the single
// canonical S-box.

#ifndef SRC_CRYPTO_AES_H_
#define SRC_CRYPTO_AES_H_

#include <cstdint>

#include "src/crypto/bytes.h"

namespace bolted::crypto {

class Aes256 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 32;
  static constexpr int kRounds = 14;
  static constexpr size_t kRoundKeyBytes = (kRounds + 1) * kBlockSize;

  // key must be exactly kKeySize bytes.
  explicit Aes256(ByteView key);

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  // Dispatch plumbing for the XTS/GCM/CTR kernels (src/crypto/accel.h).
  bool accelerated() const { return accel_; }
  const uint8_t* enc_round_key_bytes() const { return rk_bytes_; }
  const uint8_t* dec_round_key_bytes() const { return drk_bytes_; }

 private:
  // Round keys as 4-byte words, (kRounds + 1) * 4 of them.
  uint32_t round_keys_[(kRounds + 1) * 4];
  // Byte-serialized schedule in AESENC layout, always populated.
  uint8_t rk_bytes_[kRoundKeyBytes];
  // AESIMC-transformed decryption schedule; valid only when accel_.
  uint8_t drk_bytes_[kRoundKeyBytes];
  bool accel_ = false;
};

}  // namespace bolted::crypto

#endif  // SRC_CRYPTO_AES_H_
