#include "src/core/cloud.h"

namespace bolted::core {

// Adapts a Machine's BMC to HIL's narrow handle.
class Cloud::MachineBmc : public hil::BmcHandle {
 public:
  explicit MachineBmc(machine::Machine& machine) : machine_(machine) {}
  void PowerCycle() override { machine_.PowerCycleReset(); }

 private:
  machine::Machine& machine_;
};

Cloud::Cloud(const CloudConfig& config)
    : config_(config),
      sim_(config.seed),
      fabric_(sim_, config.cal.network_latency,
              config.cal.nic_bandwidth_bytes_per_second),
      hil_(fabric_),
      ceph_(sim_, config.cal.ceph),
      images_(sim_, ceph_),
      airlock_slots_(sim_, config.cal.max_concurrent_airlocks) {
  // Firmware the provider ships (and publishes measurements for).
  uefi_ = firmware::VendorUefi("dell-uefi-2.7.1");
  linuxboot_ = firmware::BuildLinuxBoot("linuxboot-src-v1.0");
  heads_runtime_ = firmware::BuildHeadsRuntime("linuxboot-src-v1.0");
  ipxe_ = firmware::ModifiedIpxe("ipxe-1.20-measured");
  agent_digest_ = crypto::Sha256::Hash("keylime-agent-v6");

  hil_.PublishPlatformMeasurement(uefi_.digest, "vendor UEFI 2.7.1");
  hil_.PublishPlatformMeasurement(linuxboot_.digest, "LinuxBoot v1.0");

  // Public service networks.
  provisioning_vlan_ = hil_.CreatePublicNetwork("bolted-provisioning");
  attestation_vlan_ = hil_.CreatePublicNetwork("bolted-attestation");
  hil_.CreatePublicNetwork("bolted-rejected");

  // Machines.
  machine::MachineConfig mc;
  mc.cores = config.cal.cores;
  mc.core_hz = config.cal.core_hz;
  mc.memory_bytes = config.cal.memory_bytes;
  mc.memory_scrub_bytes_per_second = config.cal.memory_scrub_bytes_per_second;
  mc.nic_bandwidth_bytes_per_second = config.cal.nic_bandwidth_bytes_per_second;
  mc.tpm_latency = config.cal.tpm_latency;
  mc.flash_firmware = config.linuxboot_in_flash ? linuxboot_ : uefi_;
  for (int r = 1; r < config.racks; ++r) {
    fabric_.AddSwitch(config.rack_uplink_bytes_per_second);
  }
  for (int i = 0; i < config.num_machines; ++i) {
    auto m = std::make_unique<machine::Machine>(sim_, fabric_, node_name(i), mc);
    if (config.racks > 1) {
      // Round-robin over racks; racks 1..N-1 are ToR switches, rack 0
      // (and every service host) stays on the core switch.
      const int rack = i % config.racks;
      if (rack != 0) {
        fabric_.AssignToSwitch(m->endpoint().address(), rack);
      }
    }
    bmcs_.push_back(std::make_unique<MachineBmc>(*m));
    hil_.RegisterNode(node_name(i), m->endpoint().address(), bmcs_.back().get());
    // The provider publishes each node's TPM EK (anti-spoofing, §5).
    hil_.SetNodeMetadata(node_name(i), "tpm_ek",
                         crypto::ToHex(m->tpm().ek_public().Encode()));
    machines_.push_back(std::move(m));
  }

  // Provider-deployed services on their own hosts.
  net::Endpoint& bmi_ep = fabric_.CreateEndpoint("svc-bmi");
  fabric_.AttachToVlan(bmi_ep.address(), provisioning_vlan_);
  bmi_ = std::make_unique<bmi::BmiService>(sim_, bmi_ep, images_);
  // TGT ran in an 8-vCPU VM; per-request processing is what saturates
  // under concurrent boots.
  bmi_cpu_ = std::make_unique<net::SharedResource>(sim_, 2.0 * config.cal.core_hz,
                                                   "svc-bmi.cpu");
  bmi_esp_cpu_ = std::make_unique<net::SharedResource>(
      sim_, 1.2 * config.cal.core_hz, "svc-bmi.esp");
  bmi_->iscsi_target().SetProcessingModel(bmi_cpu_.get(), /*cycles_per_request=*/1.6e6,
                                          /*cycles_per_byte=*/0.4);
  bmi_->SetHttpRate(config.cal.artifact_http_bytes_per_second);
  bmi_->PublishArtifact("ipxe", bmi::Artifact{ipxe_.image_bytes, ipxe_.digest});
  bmi_->PublishArtifact("heads-runtime", bmi::Artifact{heads_runtime_.image_bytes,
                                                       heads_runtime_.digest});
  bmi_->PublishArtifact("keylime-agent", bmi::Artifact{
                                             config.cal.keylime_agent_bytes,
                                             agent_digest_});

  // Per-rack chunk caches (DESIGN.md §14): one service endpoint per
  // switch, each attached to the provisioning VLAN so booting nodes can
  // reach it.  Cache 0 sits on the core switch beside the other services;
  // rack caches hang off their ToR switch, so a rack-local hit never
  // crosses the uplink.
  if (config.chunked_distribution) {
    for (int s = 0; s < fabric_.num_switches(); ++s) {
      net::Endpoint& cache_ep =
          s == 0 ? fabric_.CreateEndpoint("svc-chunk-0")
                 : fabric_.CreateEndpointOnSwitch(
                       "svc-chunk-" + std::to_string(s), s);
      fabric_.AttachToVlan(cache_ep.address(), provisioning_vlan_);
      rack_chunk_caches_.push_back(std::make_unique<provision::RackChunkCache>(
          sim_, cache_ep, ceph_, config.cal.rack_chunk_cache_bytes));
    }
  }

  net::Endpoint& registrar_ep = fabric_.CreateEndpoint("svc-registrar");
  fabric_.AttachToVlan(registrar_ep.address(), attestation_vlan_);
  registrar_ = std::make_unique<keylime::Registrar>(sim_, registrar_ep,
                                                    config.seed ^ 0x5265670000u);

  net::Endpoint& verifier_ep = fabric_.CreateEndpoint("svc-verifier");
  fabric_.AttachToVlan(verifier_ep.address(), attestation_vlan_);
  verifier_ = std::make_unique<keylime::Verifier>(
      sim_, verifier_ep, registrar_ep.address(), config.seed ^ 0x5665720000u);
}

Cloud::~Cloud() = default;

std::string Cloud::node_name(size_t i) const {
  return "node-" + std::to_string(i);
}

machine::Machine* Cloud::FindMachine(const std::string& node) {
  for (auto& m : machines_) {
    if (m->name() == node) {
      return m.get();
    }
  }
  return nullptr;
}

void Cloud::BridgeServiceOntoVlan(net::Address service, net::VlanId vlan) {
  fabric_.AttachToVlan(service, vlan);
}

void Cloud::UnbridgeServiceFromVlan(net::Address service, net::VlanId vlan) {
  fabric_.DetachFromVlan(service, vlan);
}

net::Endpoint& Cloud::CreateServiceEndpoint(const std::string& name) {
  return fabric_.CreateEndpoint(name);
}

provision::RackChunkCache* Cloud::rack_chunk_cache_for(net::Address node) {
  if (rack_chunk_caches_.empty()) {
    return nullptr;
  }
  const size_t sw = static_cast<size_t>(fabric_.SwitchOf(node));
  return sw < rack_chunk_caches_.size() ? rack_chunk_caches_[sw].get()
                                        : rack_chunk_caches_[0].get();
}

}  // namespace bolted::core
