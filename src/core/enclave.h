// Tenant-side orchestration: secure enclaves of bare-metal servers (§4).
//
// An Enclave is the paper's "user-controlled scripts": it drives HIL,
// BMI, and Keylime through the server life cycle of Figure 1
// (free -> airlock -> allocated/rejected), builds the tenant's whitelist,
// splits and delivers the bootstrap payload, sets up LUKS/IPsec according
// to the tenant's trust profile, and reacts to continuous-attestation
// violations by cutting the compromised server out of the enclave.
//
// Trust profiles mirror §4.3's personas:
//   Alice   — trusts everyone: no attestation, no encryption.
//   Bob     — trusts the provider, not other tenants: provider-deployed
//             attestation, no encryption.
//   Charlie — trusts only physical security: tenant-deployed attestation,
//             LUKS + IPsec, continuous attestation.

#ifndef SRC_CORE_ENCLAVE_H_
#define SRC_CORE_ENCLAVE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cloud.h"
#include "src/ima/ima.h"
#include "src/keylime/agent.h"
#include "src/keylime/payload.h"
#include "src/keylime/verifier.h"
#include "src/provision/phase_trace.h"
#include "src/storage/crypt_device.h"
#include "src/storage/iscsi.h"
#include "src/storage/merkle_device.h"

namespace bolted::core {

struct TrustProfile {
  bool use_attestation = true;
  // Charlie runs his own registrar/verifier instead of the provider's.
  bool tenant_deployed_services = false;
  bool encrypt_disk = false;     // LUKS on the network-mounted root
  bool integrity_disk = false;   // Merkle tree over the root (DESIGN.md §14)
  bool encrypt_network = false;  // IPsec mesh + encrypted iSCSI path
  bool continuous_attestation = false;

  static TrustProfile Alice() {
    return TrustProfile{.use_attestation = false};
  }
  static TrustProfile Bob() { return TrustProfile{.use_attestation = true}; }
  static TrustProfile Charlie() {
    return TrustProfile{.use_attestation = true,
                        .tenant_deployed_services = true,
                        .encrypt_disk = true,
                        .integrity_disk = true,
                        .encrypt_network = true,
                        .continuous_attestation = true};
  }
};

enum class NodeState { kFree, kAirlock, kAllocated, kRejected };

struct ProvisionOutcome {
  bool success = false;
  NodeState state = NodeState::kFree;
  std::string failure;
  provision::PhaseTrace trace;
};

class Enclave {
 public:
  Enclave(Cloud& cloud, std::string project, TrustProfile profile, uint64_t seed);
  ~Enclave();

  const std::string& project() const { return project_; }
  const TrustProfile& profile() const { return profile_; }
  keylime::Verifier& verifier() { return *verifier_; }
  const keylime::TenantPayload& payload() const { return payload_; }

  // Figure 1's full life cycle for one server.
  sim::Task ProvisionNode(const std::string& node, ProvisionOutcome* outcome);
  // Stateless release: image clone destroyed (or snapshotted), node
  // power-cycled and returned to the free pool.
  sim::Task ReleaseNode(const std::string& node, bool keep_snapshot = false);

  NodeState node_state(const std::string& node) const;
  const std::vector<std::string>& members() const { return members_; }

  // The boot device as the tenant OS sees it (through LUKS when the
  // profile encrypts the disk).  Null until the node is allocated.
  storage::BlockDevice* node_root_device(const std::string& node);
  machine::Machine* node_machine(const std::string& node);
  net::IpsecParams ipsec_params() const;

  // Extends the tenant's runtime whitelist (application rollout).
  void AllowRuntimeFile(const std::string& path, const crypto::Digest& content);
  // Extends the tenant's boot whitelist (firmware rollout): the tenant
  // rebuilds the next LinuxBoot from source, predicts its digest, and
  // pushes it before the staged reflash so upgraded canaries attest clean.
  void AllowBootDigest(const crypto::Digest& digest);

  // --- Runtime events (used by tests, examples, and benches) -------------

  // Simulates executing a binary on the node; measured by IMA.  Returns
  // false when the node is not running.
  bool ExecuteBinary(const std::string& node, const std::string& path,
                     const crypto::Digest& content, bool whitelisted_already);

  // Fired after a continuous-attestation violation has been fully handled
  // (keys revoked on every peer, node cut from the enclave network).
  using ViolationHandler =
      std::function<void(const std::string& node, const std::string& reason)>;
  void SetViolationHandler(ViolationHandler handler) {
    violation_handler_ = std::move(handler);
  }
  uint64_t violations_handled() const { return violations_handled_; }

 private:
  struct NodeRuntime {
    machine::Machine* machine = nullptr;
    NodeState state = NodeState::kFree;
    std::unique_ptr<keylime::Agent> agent;
    std::unique_ptr<ima::Ima> ima;
    std::unique_ptr<storage::IscsiInitiator> initiator;
    std::unique_ptr<storage::CryptDevice> crypt;
    // Integrity layer over the (possibly encrypted) root; accounting-only
    // during boot — the tree is never materialised for a 20 GB image.
    std::unique_ptr<storage::MerkleBlockDevice> merkle;
    // Chunked-distribution client; like the agent, RPC handlers hold raw
    // pointers to it, so it is parked (not destroyed) on release/reject.
    std::unique_ptr<provision::ChunkFetcher> fetcher;
    storage::ImageId image = 0;
    net::VlanId airlock_vlan = 0;
    std::string airlock_name;
  };

  std::vector<net::Address> ServiceAddresses() const;
  keylime::Whitelist BuildWhitelist() const;
  sim::Task EnterAirlock(const std::string& node, NodeRuntime& rt);
  sim::Task LeaveAirlockToEnclave(const std::string& node, NodeRuntime& rt);
  sim::Task RejectNode(const std::string& node, NodeRuntime& rt,
                       const std::string& reason, ProvisionOutcome* outcome);
  sim::Task AttestInAirlock(const std::string& node, NodeRuntime& rt, bool* ok,
                            std::string* failure);
  sim::Task SetupStorageAndBoot(const std::string& node, NodeRuntime& rt);
  sim::Task DeliverUHalf(const std::string& node, NodeRuntime& rt, bool* ok);
  void InstallMeshKeys(const std::string& node, NodeRuntime& rt);
  void RefreshVerifierPeers();
  void HandleViolation(const std::string& node, const std::string& reason);
  sim::Task ViolationResponse(std::string node, std::string reason);

  Cloud& cloud_;
  std::string project_;
  TrustProfile profile_;
  crypto::Drbg drbg_;

  // Tenant controller ("outside the cloud"): delivers U halves, runs the
  // scripts.
  net::Endpoint& controller_ep_;
  net::RpcNode controller_;

  // Tenant-deployed Keylime (Charlie) or pointers to the provider's.
  std::unique_ptr<keylime::Registrar> own_registrar_;
  std::unique_ptr<keylime::Verifier> own_verifier_;
  keylime::Registrar* registrar_ = nullptr;
  keylime::Verifier* verifier_ = nullptr;
  net::Address registrar_address_ = 0;

  storage::ImageId golden_image_ = 0;
  keylime::TenantPayload payload_;
  std::shared_ptr<keylime::Whitelist> whitelist_;
  std::map<std::string, keylime::SplitPayload> splits_;

  net::VlanId enclave_vlan_ = 0;
  std::map<std::string, NodeRuntime> nodes_;
  // Agents from rejected/released nodes: their machine-side RPC handlers
  // (and possibly in-flight handler coroutines) reference them, so they
  // outlive their NodeRuntime and die with the enclave.
  std::vector<std::unique_ptr<keylime::Agent>> retired_agents_;
  // Same parking rule for chunk fetchers: the machine-side `chunk.get`
  // handler references them until the next provision replaces it.
  std::vector<std::unique_ptr<provision::ChunkFetcher>> retired_fetchers_;
  std::vector<std::string> members_;
  ViolationHandler violation_handler_;
  uint64_t violations_handled_ = 0;
};

}  // namespace bolted::core

#endif  // SRC_CORE_ENCLAVE_H_
