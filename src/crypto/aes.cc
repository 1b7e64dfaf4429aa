#include "src/crypto/aes.h"

#include <cassert>
#include <cstring>

#include "src/crypto/accel.h"
#include "src/crypto/cpu.h"

namespace bolted::crypto {
namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7,
    0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf,
    0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5,
    0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e,
    0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef,
    0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff,
    0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d,
    0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5,
    0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e,
    0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55,
    0x28, 0xdf, 0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

struct InvSbox {
  uint8_t table[256];
  InvSbox() {
    for (int i = 0; i < 256; ++i) {
      table[kSbox[i]] = static_cast<uint8_t>(i);
    }
  }
};
const InvSbox kInvSbox;

uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// GF(2^8) multiply.
uint8_t Gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) {
      p ^= a;
    }
    a = Xtime(a);
    b >>= 1;
  }
  return p;
}

uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

void AddRoundKey(uint8_t state[16], const uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c] ^= static_cast<uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<uint8_t>(rk[c]);
  }
}

void SubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) {
    state[i] = kSbox[state[i]];
  }
}

void InvSubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) {
    state[i] = kInvSbox.table[state[i]];
  }
}

// State layout: state[4*c + r] is row r, column c (column-major, matching
// the byte order of the input block).
void ShiftRows(uint8_t state[16]) {
  uint8_t tmp[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) {
      tmp[4 * c + r] = state[4 * ((c + r) % 4) + r];
    }
  }
  std::memcpy(state, tmp, 16);
}

void InvShiftRows(uint8_t state[16]) {
  uint8_t tmp[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) {
      tmp[4 * ((c + r) % 4) + r] = state[4 * c + r];
    }
  }
  std::memcpy(state, tmp, 16);
}

void MixColumns(uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = state + 4 * c;
    const uint8_t a0 = col[0];
    const uint8_t a1 = col[1];
    const uint8_t a2 = col[2];
    const uint8_t a3 = col[3];
    col[0] = static_cast<uint8_t>(Xtime(a0) ^ (Xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ (Xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ (Xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((Xtime(a0) ^ a0) ^ a1 ^ a2 ^ Xtime(a3));
  }
}

void InvMixColumns(uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = state + 4 * c;
    const uint8_t a0 = col[0];
    const uint8_t a1 = col[1];
    const uint8_t a2 = col[2];
    const uint8_t a3 = col[3];
    col[0] = Gmul(a0, 0x0e) ^ Gmul(a1, 0x0b) ^ Gmul(a2, 0x0d) ^ Gmul(a3, 0x09);
    col[1] = Gmul(a0, 0x09) ^ Gmul(a1, 0x0e) ^ Gmul(a2, 0x0b) ^ Gmul(a3, 0x0d);
    col[2] = Gmul(a0, 0x0d) ^ Gmul(a1, 0x09) ^ Gmul(a2, 0x0e) ^ Gmul(a3, 0x0b);
    col[3] = Gmul(a0, 0x0b) ^ Gmul(a1, 0x0d) ^ Gmul(a2, 0x09) ^ Gmul(a3, 0x0e);
  }
}

}  // namespace

Aes256::Aes256(ByteView key) {
  assert(key.size() == kKeySize);
  constexpr int kNk = 8;
  constexpr int kWords = (kRounds + 1) * 4;
  for (int i = 0; i < kNk; ++i) {
    round_keys_[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
                     (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<uint32_t>(key[4 * i + 3]);
  }
  uint32_t rcon = 0x01000000;
  for (int i = kNk; i < kWords; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % kNk == 0) {
      temp = SubWord(RotWord(temp)) ^ rcon;
      rcon = static_cast<uint32_t>(Xtime(static_cast<uint8_t>(rcon >> 24))) << 24;
    } else if (i % kNk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - kNk] ^ temp;
  }

  // Serialize the schedule to the natural byte order AESENC consumes
  // (big-endian unpack of each word restores the FIPS 197 byte layout).
  for (int i = 0; i < kWords; ++i) {
    rk_bytes_[4 * i] = static_cast<uint8_t>(round_keys_[i] >> 24);
    rk_bytes_[4 * i + 1] = static_cast<uint8_t>(round_keys_[i] >> 16);
    rk_bytes_[4 * i + 2] = static_cast<uint8_t>(round_keys_[i] >> 8);
    rk_bytes_[4 * i + 3] = static_cast<uint8_t>(round_keys_[i]);
  }
  accel_ = cpu::Get().aesni;
  if (accel_) {
    internal::AesNiMakeDecryptKeys(rk_bytes_, drk_bytes_);
  } else {
    std::memset(drk_bytes_, 0, sizeof(drk_bytes_));
  }
}

void Aes256::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (accel_) {
    internal::AesNiEncryptBlock(rk_bytes_, in, out);
    return;
  }
  uint8_t state[16];
  std::memcpy(state, in, 16);
  AddRoundKey(state, round_keys_);
  for (int round = 1; round < kRounds; ++round) {
    SubBytes(state);
    ShiftRows(state);
    MixColumns(state);
    AddRoundKey(state, round_keys_ + 4 * round);
  }
  SubBytes(state);
  ShiftRows(state);
  AddRoundKey(state, round_keys_ + 4 * kRounds);
  std::memcpy(out, state, 16);
}

void Aes256::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (accel_) {
    internal::AesNiDecryptBlock(drk_bytes_, in, out);
    return;
  }
  uint8_t state[16];
  std::memcpy(state, in, 16);
  AddRoundKey(state, round_keys_ + 4 * kRounds);
  for (int round = kRounds - 1; round > 0; --round) {
    InvShiftRows(state);
    InvSubBytes(state);
    AddRoundKey(state, round_keys_ + 4 * round);
    InvMixColumns(state);
  }
  InvShiftRows(state);
  InvSubBytes(state);
  AddRoundKey(state, round_keys_);
  std::memcpy(out, state, 16);
}

}  // namespace bolted::crypto
