#include "src/net/ipsec.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/hmac.h"
#include "src/crypto/wire.h"

namespace bolted::net {

double IpsecPayloadPerPacket(const IpsecCostModel& model, uint64_t mtu) {
  const double payload = static_cast<double>(mtu) -
                         static_cast<double>(model.esp_overhead_bytes);
  assert(payload > 0);
  return payload;
}

double IpsecWireBytes(const IpsecCostModel& model, uint64_t mtu, double payload_bytes) {
  const double per_packet = IpsecPayloadPerPacket(model, mtu);
  const double packets = payload_bytes / per_packet;
  return payload_bytes + packets * static_cast<double>(model.esp_overhead_bytes);
}

double IpsecCryptoCycles(const IpsecCostModel& model, bool hardware_aes, uint64_t mtu,
                         double payload_bytes) {
  const double cycles_per_byte =
      hardware_aes ? model.cycles_per_byte_hw : model.cycles_per_byte_sw;
  const double per_packet = IpsecPayloadPerPacket(model, mtu);
  const double packets = payload_bytes / per_packet;
  return payload_bytes * cycles_per_byte + packets * model.cycles_per_packet;
}

double IpsecCpuBoundThroughput(const IpsecCostModel& model, bool hardware_aes,
                               uint64_t mtu) {
  const double cycles_per_app_byte =
      IpsecCryptoCycles(model, hardware_aes, mtu, 1.0);
  return model.cpu_hz / cycles_per_app_byte;
}

// Both ends derive one base salt from the key and the unordered pair;
// its top bit then names the direction (set when the sender has the
// larger address), so the two directions' salts differ by construction.
IpsecContext::SecurityAssociation::SecurityAssociation(const crypto::Bytes& key,
                                                       Address self, Address peer)
    : gcm(key) {
  assert(self != peer);
  crypto::Bytes info = crypto::ToBytes("esp-salt");
  crypto::AppendU32(info, std::min(self, peer));
  crypto::AppendU32(info, std::max(self, peer));
  const crypto::Bytes base = crypto::Hkdf({}, key, info, 4);
  std::memcpy(tx_salt, base.data(), 4);
  std::memcpy(rx_salt, base.data(), 4);
  tx_salt[0] = static_cast<uint8_t>((base[0] & 0x7f) | (self > peer ? 0x80 : 0));
  rx_salt[0] = static_cast<uint8_t>(tx_salt[0] ^ 0x80);
}

void IpsecContext::InstallSa(Address peer, const crypto::Bytes& key) {
  assert(key.size() == 32);
  sas_.insert_or_assign(peer, SecurityAssociation(key, self_, peer));
}

void IpsecContext::RemoveSa(Address peer) { sas_.erase(peer); }

bool IpsecContext::HasSa(Address peer) const { return sas_.contains(peer); }

std::optional<crypto::Bytes> IpsecContext::Seal(Address peer,
                                                crypto::ByteView plaintext) {
  const auto it = sas_.find(peer);
  if (it == sas_.end()) {
    return std::nullopt;
  }
  SecurityAssociation& sa = it->second;
  const uint64_t sequence = ++sa.tx_sequence;

  uint8_t seq_be[8];
  for (int i = 0; i < 8; ++i) {
    seq_be[i] = static_cast<uint8_t>(sequence >> (56 - 8 * i));
  }
  // Nonce = 4-byte salt || 8-byte sequence (RFC 4106 style).
  uint8_t nonce[crypto::AesGcm::kNonceSize];
  std::memcpy(nonce, sa.tx_salt, 4);
  std::memcpy(nonce + 4, seq_be, 8);

  // Wire = 8-byte sequence || ciphertext || tag, sealed in place so the
  // ciphertext is produced directly in the framed message.
  crypto::Bytes wire(8 + plaintext.size() + crypto::AesGcm::kTagSize);
  std::memcpy(wire.data(), seq_be, 8);
  sa.gcm.SealTo(crypto::ByteView(nonce, sizeof(nonce)), plaintext,
                crypto::ByteView(seq_be, sizeof(seq_be)), wire.data() + 8);
  return wire;
}

std::optional<crypto::Bytes> IpsecContext::Open(Address peer, crypto::ByteView wire) {
  const auto it = sas_.find(peer);
  if (it == sas_.end() || wire.size() < 8 + crypto::AesGcm::kTagSize) {
    return std::nullopt;
  }
  SecurityAssociation& sa = it->second;

  const uint64_t sequence = crypto::WireReader(wire).U64();
  // Strictly-increasing replay protection.
  if (sequence <= sa.rx_window) {
    return std::nullopt;
  }

  uint8_t nonce[crypto::AesGcm::kNonceSize];
  std::memcpy(nonce, sa.rx_salt, 4);
  std::memcpy(nonce + 4, wire.data(), 8);

  auto plaintext = sa.gcm.Open(crypto::ByteView(nonce, sizeof(nonce)),
                               wire.subspan(8), wire.first(8));
  if (!plaintext) {
    return std::nullopt;
  }
  sa.rx_window = sequence;
  return plaintext;
}

sim::Task BulkTransfer(sim::Simulation& sim, PathEnd src, PathEnd dst,
                       double payload_bytes, const IpsecParams& params,
                       const IpsecCostModel& model) {
  DemandList demands;
  if (!params.enabled) {
    // Plain TCP: header overhead only.
    const double payload_per_packet =
        static_cast<double>(params.mtu) - static_cast<double>(model.ip_tcp_header_bytes);
    const double wire =
        payload_bytes * (static_cast<double>(params.mtu) / payload_per_packet);
    demands.push_back({src.nic, wire});
    demands.push_back({dst.nic, wire});
  } else {
    const double wire = IpsecWireBytes(model, params.mtu, payload_bytes);
    const double cycles =
        IpsecCryptoCycles(model, params.hardware_aes, params.mtu, payload_bytes);
    demands.push_back({src.nic, wire});
    demands.push_back({dst.nic, wire});
    demands.push_back({src.crypto_cpu, cycles});
    demands.push_back({dst.crypto_cpu, cycles});
  }
  co_await ConsumeAllWeighted(sim, std::move(demands));
}

}  // namespace bolted::net
