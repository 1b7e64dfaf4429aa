// The one big-endian codec for every binary format in the tree: RPC
// payloads (Keylime, BMI, chunk distribution), TPM quotes and event logs,
// iSCSI requests, ESP sequence numbers and the Merkle journal.
//
// WireWriter appends big-endian integers, length-prefixed blobs and
// strings, digests and fixed-size raw fields.  WireReader decodes them
// fail-closed: a read past the end flips ok() and every later read
// returns zero values or an empty view, so a decoder reads all of its
// fields and validates once at the end.  Each format adds its own bounds
// (sizes, counts, indices) on top.

#ifndef SRC_CRYPTO_WIRE_H_
#define SRC_CRYPTO_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/crypto/bytes.h"
#include "src/crypto/sha256.h"

namespace bolted::crypto {

class WireWriter {
 public:
  WireWriter& U32(uint32_t v) {
    AppendU32(out_, v);
    return *this;
  }
  WireWriter& U64(uint64_t v) {
    AppendU64(out_, v);
    return *this;
  }
  // A fixed-size field: the bytes alone, no length prefix.
  WireWriter& Raw(ByteView data) {
    Append(out_, data);
    return *this;
  }
  WireWriter& Blob(ByteView data) {
    AppendU32(out_, static_cast<uint32_t>(data.size()));
    return Raw(data);
  }
  WireWriter& Str(std::string_view s) {
    return Blob(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  WireWriter& Digest(const crypto::Digest& d) { return Raw(DigestView(d)); }
  Bytes Take() { return std::move(out_); }

 private:
  Bytes out_;
};

class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  // Fixed-width reads go through memcpy + byteswap: one unaligned load
  // and a bswap instruction instead of a byte-at-a-time shift loop.
  uint32_t U32() {
    if (!Require(4)) {
      return 0;
    }
    uint32_t v;
    std::memcpy(&v, data_.data(), sizeof(v));
    data_ = data_.subspan(4);
    return FromBigEndian32(v);
  }
  uint64_t U64() {
    if (!Require(8)) {
      return 0;
    }
    uint64_t v;
    std::memcpy(&v, data_.data(), sizeof(v));
    data_ = data_.subspan(8);
    return FromBigEndian64(v);
  }
  // The next n bytes as a view into the input; empty when they are not
  // all there.
  ByteView Raw(size_t n) {
    if (!Require(n)) {
      return {};
    }
    const ByteView out = data_.first(n);
    data_ = data_.subspan(n);
    return out;
  }
  Bytes Blob() {
    const ByteView blob = Raw(U32());
    return Bytes(blob.begin(), blob.end());
  }
  // Reads the string straight out of the buffer — no intermediate Bytes.
  std::string Str() {
    const ByteView str = Raw(U32());
    return std::string(reinterpret_cast<const char*>(str.data()), str.size());
  }
  crypto::Digest Digest() {
    crypto::Digest d{};
    const ByteView raw = Raw(d.size());
    if (!raw.empty()) {
      std::memcpy(d.data(), raw.data(), d.size());
    }
    return d;
  }

  // True when every read so far was in bounds and the input is consumed.
  bool AtEnd() const { return ok_ && data_.empty(); }
  bool ok() const { return ok_; }

 private:
  // C++20 has no std::byteswap; on little-endian targets these lower to a
  // single bswap via the GCC/Clang builtins.
  static uint32_t FromBigEndian32(uint32_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap32(v);
#endif
  }
  static uint64_t FromBigEndian64(uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap64(v);
#endif
  }

  bool Require(size_t n) {
    if (!ok_ || data_.size() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteView data_;
  bool ok_ = true;
};

}  // namespace bolted::crypto

#endif  // SRC_CRYPTO_WIRE_H_
