// IPsec ESP transport: real per-message authenticated encryption for the
// control plane, plus the cycle-accurate cost model that drives the bulk
// throughput results (Figures 3b, 3c, 7).
//
// The paper's configuration is strongSwan host-to-host tunnels with
// AES-256-GCM (hardware AES-NI or software AES) and MTU 1500 or 9000.
// Tunnel keys are distributed by Keylime after successful attestation and
// revoked on continuous-attestation policy violations (§7.4).

#ifndef SRC_NET_IPSEC_H_
#define SRC_NET_IPSEC_H_

#include <cstdint>
#include <map>
#include <optional>

#include "src/crypto/aes_gcm.h"
#include "src/crypto/bytes.h"
#include "src/net/network.h"
#include "src/net/resource.h"
#include "src/sim/task.h"

namespace bolted::net {

// Cost constants for the ESP data path (see src/core/calibration.h for the
// sources).  Capacities are per host: one dedicated processing core, as
// observed in the paper ("CPU usage ... between 60% and 80% of one core").
struct IpsecCostModel {
  double cpu_hz = 2.6e9;             // Xeon E5-2650 v2
  double cycles_per_byte_hw = 1.2;   // AES-NI + GHASH (PCLMULQDQ)
  double cycles_per_byte_sw = 18.0;  // table-based AES
  double cycles_per_packet = 27000;  // kernel ESP path per packet
  uint64_t esp_overhead_bytes = 73;  // ESP hdr + IV + ICV + outer headers
  uint64_t ip_tcp_header_bytes = 52;
};

struct IpsecParams {
  bool enabled = false;
  bool hardware_aes = true;
  uint64_t mtu = 9000;
};

// Payload bytes carried per MTU-sized packet under ESP.
double IpsecPayloadPerPacket(const IpsecCostModel& model, uint64_t mtu);
// Total wire bytes for `payload_bytes` of application data.
double IpsecWireBytes(const IpsecCostModel& model, uint64_t mtu, double payload_bytes);
// CPU cycles to encrypt-or-decrypt `payload_bytes` at the given MTU.
double IpsecCryptoCycles(const IpsecCostModel& model, bool hardware_aes, uint64_t mtu,
                         double payload_bytes);
// Closed-form single-flow throughput (bytes/s of application data) when
// the CPU is the bottleneck; benches use it as a cross-check.
double IpsecCpuBoundThroughput(const IpsecCostModel& model, bool hardware_aes,
                               uint64_t mtu);

// One host's security-association database.  Seal/Open implement a
// simplified ESP: 64-bit sequence number (authenticated, replay-checked)
// followed by AES-256-GCM ciphertext.
class IpsecContext {
 public:
  // `self` is the owning host's address.  Both peers install the same
  // key, and each direction of the pair seals under its own nonce salt,
  // fixed by the ordered (sender, receiver) pair: the two directions never
  // share a nonce, and a frame reflected back to its sender fails to open.
  explicit IpsecContext(Address self) : self_(self) {}

  // key must be 32 bytes.
  void InstallSa(Address peer, const crypto::Bytes& key);
  void RemoveSa(Address peer);
  bool HasSa(Address peer) const;
  size_t sa_count() const { return sas_.size(); }

  // Returns the ESP wire format, or nullopt when no SA exists.
  std::optional<crypto::Bytes> Seal(Address peer, crypto::ByteView plaintext);
  // Authenticates, replay-checks, and decrypts.
  std::optional<crypto::Bytes> Open(Address peer, crypto::ByteView wire);

 private:
  struct SecurityAssociation {
    // Builds the AES key schedule and GHASH tables once at SA install;
    // Seal/Open reuse them for every packet on the association, in both
    // directions.
    SecurityAssociation(const crypto::Bytes& key, Address self, Address peer);

    uint8_t tx_salt[4] = {};  // IV prefix of frames sealed to the peer
    uint8_t rx_salt[4] = {};  // IV prefix of frames the peer sealed to us
    crypto::AesGcm gcm;
    uint64_t tx_sequence = 0;
    uint64_t rx_window = 0;  // highest sequence accepted
  };

  Address self_;
  std::map<Address, SecurityAssociation> sas_;
};

// A pipeline end for bulk transfers: the NIC plus the host's crypto core.
struct PathEnd {
  SharedResource* nic = nullptr;
  SharedResource* crypto_cpu = nullptr;
};

// Transfers `payload_bytes` of application data between two hosts,
// consuming wire bytes on both NICs and, when IPsec is on, crypto cycles
// on both hosts' cores.  Completes when the slowest stage drains.
sim::Task BulkTransfer(sim::Simulation& sim, PathEnd src, PathEnd dst,
                       double payload_bytes, const IpsecParams& params,
                       const IpsecCostModel& model);

}  // namespace bolted::net

#endif  // SRC_NET_IPSEC_H_
