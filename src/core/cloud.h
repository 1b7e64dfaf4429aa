// The simulated Bolted datacenter: machines, switch fabric, HIL, and the
// provider-deployed services (BMI provisioning + Keylime attestation).
//
// A Cloud owns the Simulation and everything physical.  Tenants interact
// through Enclave objects (src/core/enclave.h), which orchestrate the
// services exactly the way the paper's Python scripts do — including the
// option (Charlie, §4.3) of standing up their *own* attestation and
// provisioning services instead of the provider's.

#ifndef SRC_CORE_CLOUD_H_
#define SRC_CORE_CLOUD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/bmi/bmi.h"
#include "src/core/calibration.h"
#include "src/firmware/firmware.h"
#include "src/hil/hil.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/net/network.h"
#include "src/provision/chunk_cache.h"
#include "src/sim/simulation.h"
#include "src/storage/image.h"
#include "src/storage/object_store.h"

namespace bolted::core {

struct CloudConfig {
  int num_machines = 16;
  // Machines with LinuxBoot burned into SPI flash skip the iPXE
  // chain-load (Fig. 4's "LinuxBoot ROM" bars).
  bool linuxboot_in_flash = false;
  // Rack topology: with racks > 1, machines spread round-robin over
  // top-of-rack switches whose uplinks to the core (where the service
  // hosts live) have the given bandwidth — the oversubscription knob for
  // bench/ablation_racks.  racks == 1 keeps the paper's single switch.
  int racks = 1;
  double rack_uplink_bytes_per_second = 5e9;  // 40 Gbit uplink
  // Content-addressed rack-local image distribution (DESIGN.md §14): one
  // chunk-cache service per switch; nodes boot from chunks instead of
  // streaming the image working set over iSCSI from the central store.
  bool chunked_distribution = false;
  Calibration cal;
  uint64_t seed = 0x626f6c746564u;
};

class Cloud {
 public:
  explicit Cloud(const CloudConfig& config);
  ~Cloud();

  sim::Simulation& sim() { return sim_; }
  net::Network& fabric() { return fabric_; }
  hil::Hil& hil() { return hil_; }
  const CloudConfig& config() const { return config_; }
  const Calibration& cal() const { return config_.cal; }

  storage::ObjectStore& ceph() { return ceph_; }
  storage::ImageStore& images() { return images_; }
  bmi::BmiService& bmi() { return *bmi_; }
  // The iSCSI server VM's CPUs: TGT request processing, and the
  // strongSwan ESP path (which in practice rides on roughly one core and
  // throttles encrypted storage traffic).
  net::SharedResource& bmi_cpu() { return *bmi_cpu_; }
  net::SharedResource& bmi_esp_cpu() { return *bmi_esp_cpu_; }
  keylime::Registrar& provider_registrar() { return *registrar_; }
  keylime::Verifier& provider_verifier() { return *verifier_; }

  // Chunk-cache service of the rack (switch) a node hangs off; null when
  // chunked_distribution is off.
  provision::RackChunkCache* rack_chunk_cache_for(net::Address node);
  size_t num_rack_chunk_caches() const { return rack_chunk_caches_.size(); }
  provision::RackChunkCache& rack_chunk_cache(size_t i) {
    return *rack_chunk_caches_[i];
  }

  size_t num_machines() const { return machines_.size(); }
  machine::Machine& machine(size_t i) { return *machines_[i]; }
  machine::Machine* FindMachine(const std::string& node);
  std::string node_name(size_t i) const;

  // Firmware variants the provider ships.
  const firmware::FirmwareImage& uefi() const { return uefi_; }
  const firmware::FirmwareImage& linuxboot() const { return linuxboot_; }
  const firmware::FirmwareImage& heads_runtime() const { return heads_runtime_; }
  const firmware::FirmwareImage& ipxe() const { return ipxe_; }
  const crypto::Digest& agent_digest() const { return agent_digest_; }

  // Provider admin action: trunk a service endpoint onto a VLAN (used to
  // bridge BMI/Keylime/tenant-controller into airlocks and enclaves).
  void BridgeServiceOntoVlan(net::Address service, net::VlanId vlan);
  void UnbridgeServiceFromVlan(net::Address service, net::VlanId vlan);

  // Creates an extra service endpoint (e.g. a tenant-deployed Keylime or
  // a tenant controller "outside the cloud").
  net::Endpoint& CreateServiceEndpoint(const std::string& name);

  // The prototype's single-airlock limitation (Fig. 5).
  sim::Semaphore& airlock_slots() { return airlock_slots_; }

  // Public (provider) networks.
  net::VlanId provisioning_vlan() const { return provisioning_vlan_; }
  net::VlanId attestation_vlan() const { return attestation_vlan_; }

 private:
  class MachineBmc;

  CloudConfig config_;
  sim::Simulation sim_;
  net::Network fabric_;
  hil::Hil hil_;
  storage::ObjectStore ceph_;
  storage::ImageStore images_;

  firmware::FirmwareImage uefi_;
  firmware::FirmwareImage linuxboot_;
  firmware::FirmwareImage heads_runtime_;
  firmware::FirmwareImage ipxe_;
  crypto::Digest agent_digest_{};

  std::vector<std::unique_ptr<machine::Machine>> machines_;
  std::vector<std::unique_ptr<MachineBmc>> bmcs_;

  std::unique_ptr<net::SharedResource> bmi_cpu_;
  std::unique_ptr<net::SharedResource> bmi_esp_cpu_;
  std::unique_ptr<bmi::BmiService> bmi_;
  std::unique_ptr<keylime::Registrar> registrar_;
  std::unique_ptr<keylime::Verifier> verifier_;
  // Indexed by switch id (0 = core).
  std::vector<std::unique_ptr<provision::RackChunkCache>> rack_chunk_caches_;

  net::VlanId provisioning_vlan_ = 0;
  net::VlanId attestation_vlan_ = 0;
  sim::Semaphore airlock_slots_;
};

}  // namespace bolted::core

#endif  // SRC_CORE_CLOUD_H_
