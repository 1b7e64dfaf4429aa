#include "src/core/enclave.h"

#include "src/bmi/bmi.h"
#include "src/crypto/ecies.h"
#include "src/crypto/wire.h"
#include "src/obs/obs.h"

namespace bolted::core {
namespace {

constexpr std::string_view kEnclaveNetSuffix = "-enclave";

// Retry budgets for the transient half of provisioning failures.  Artifact
// downloads and airlock attestation ride over the same fabric the fault
// layer perturbs; integrity failures (bad measurements, EK mismatch) are
// never retried.
constexpr int kMaxFetchAttempts = 3;
constexpr sim::Duration kFetchRetryBackoff = sim::Duration::Seconds(2);
constexpr int kMaxAttestAttempts = 3;
constexpr sim::Duration kAttestRetryBackoff = sim::Duration::Seconds(5);

}  // namespace

bool IsTransientProvisionFailure(std::string_view failure) {
  return failure == "agent download failed" || failure == "registration failed" ||
         failure == "U-half delivery failed" || failure == "iPXE download failed" ||
         failure == "LinuxBoot download failed" || failure == "kernel download failed" ||
         failure == "node unavailable" || keylime::IsTransientFailure(failure);
}

Enclave::Enclave(Cloud& cloud, std::string project, TrustProfile profile,
                 uint64_t seed)
    : cloud_(cloud),
      project_(std::move(project)),
      profile_(profile),
      // Key material is derived from both the tenant's seed and its
      // identity, so two tenants reusing a seed never share secrets.
      drbg_([this, seed]() {
        crypto::Bytes material = crypto::ToBytes(project_);
        crypto::AppendU64(material, seed);
        return crypto::Drbg(material);
      }()),
      controller_ep_(cloud.CreateServiceEndpoint(project_ + "-controller")),
      controller_(cloud.sim(), controller_ep_) {
  controller_.Start();
  hil::Hil& hil = cloud_.hil();
  hil.CreateProject(project_);
  enclave_vlan_ = hil.CreateNetwork(project_, project_ + std::string(kEnclaveNetSuffix));
  hil.GrantNetworkAccess("bolted-provisioning", project_);
  hil.GrantNetworkAccess("bolted-attestation", project_);
  hil.GrantNetworkAccess("bolted-rejected", project_);

  // The controller lives outside the cloud but can reach the service
  // networks.
  cloud_.BridgeServiceOntoVlan(controller_.address(), cloud_.provisioning_vlan());
  cloud_.BridgeServiceOntoVlan(controller_.address(), cloud_.attestation_vlan());

  if (profile_.use_attestation && profile_.tenant_deployed_services) {
    net::Endpoint& reg_ep =
        cloud_.CreateServiceEndpoint(project_ + "-keylime-registrar");
    net::Endpoint& ver_ep =
        cloud_.CreateServiceEndpoint(project_ + "-keylime-verifier");
    cloud_.BridgeServiceOntoVlan(reg_ep.address(), cloud_.attestation_vlan());
    cloud_.BridgeServiceOntoVlan(ver_ep.address(), cloud_.attestation_vlan());
    own_registrar_ = std::make_unique<keylime::Registrar>(
        cloud_.sim(), reg_ep, seed ^ 0x726567u);
    own_verifier_ = std::make_unique<keylime::Verifier>(
        cloud_.sim(), ver_ep, reg_ep.address(), seed ^ 0x766572u);
    registrar_ = own_registrar_.get();
    verifier_ = own_verifier_.get();
    registrar_address_ = reg_ep.address();
  } else {
    registrar_ = &cloud_.provider_registrar();
    verifier_ = &cloud_.provider_verifier();
    registrar_address_ = cloud_.provider_registrar().address();
  }

  // Tenant image identity: kernel/initrd digests the tenant builds and
  // therefore knows ahead of time.
  const Calibration& cal = cloud_.cal();
  payload_.kernel_digest = crypto::Sha256::Hash(project_ + "-kernel-4.17.9");
  payload_.initrd_digest = crypto::Sha256::Hash(project_ + "-initrd-4.17.9");
  payload_.kernel_bytes = cal.kernel_bytes;
  payload_.initrd_bytes = cal.initrd_bytes;
  payload_.disk_secret = drbg_.Generate(32);
  payload_.network_key_seed = drbg_.Generate(32);
  payload_.boot_script = "join-enclave; unlock-disk; start-ipsec; kexec";

  storage::BootInfo boot_info;
  boot_info.kernel_bytes = cal.kernel_bytes;
  boot_info.initrd_bytes = cal.initrd_bytes;
  boot_info.kernel_cmdline = "root=/dev/bolted0 ro quiet";
  boot_info.kernel_digest = payload_.kernel_digest;
  boot_info.initrd_digest = payload_.initrd_digest;
  golden_image_ = cloud_.bmi().RegisterGoldenImage(project_ + "-golden",
                                                   cal.image_virtual_bytes,
                                                   boot_info);
  // The golden image's content (root filesystem) was uploaded before the
  // experiment window; mark it present so boots read real objects.
  cloud_.images().PrepopulateObjects(
      golden_image_, 0,
      cal.image_virtual_bytes / cloud_.ceph().config().object_size);
  // For unattested tenants the kernel comes straight from the
  // provisioning service instead of via Keylime.
  cloud_.bmi().PublishArtifact(
      project_ + "-kernel-zip",
      bmi::Artifact{cal.kernel_bytes + cal.initrd_bytes, payload_.kernel_digest});
  if (cloud_.config().chunked_distribution) {
    // Content-addressed distribution: publish the golden image's chunk
    // manifest so booting nodes pull chunks through their rack cache.
    cloud_.bmi().RegisterChunkManifest(storage::ChunkManifest::ForImage(
        project_ + "-golden", cal.image_virtual_bytes, cal.chunk_bytes));
  }

  whitelist_ = std::make_shared<keylime::Whitelist>(BuildWhitelist());

  verifier_->SetViolationCallback(
      [this](const std::string& node, const std::string& reason) {
        HandleViolation(node, reason);
      });
}

Enclave::~Enclave() = default;

keylime::Whitelist Enclave::BuildWhitelist() const {
  keylime::Whitelist whitelist;
  // Platform firmware: the tenant rebuilds LinuxBoot from source and gets
  // the same digest (deterministic build); vendor UEFI digests come from
  // the provider-published whitelist, which the tenant chooses to accept.
  whitelist.AllowBoot(cloud_.linuxboot().digest);
  for (const hil::PlatformMeasurement& m : cloud_.hil().platform_whitelist()) {
    whitelist.AllowBoot(m.digest);
  }
  whitelist.AllowBoot(cloud_.ipxe().digest);
  whitelist.AllowBoot(cloud_.heads_runtime().digest);
  whitelist.AllowBoot(cloud_.agent_digest());
  whitelist.AllowBoot(payload_.kernel_digest);
  whitelist.AllowBoot(payload_.initrd_digest);
  return whitelist;
}

void Enclave::AllowBootDigest(const crypto::Digest& digest) {
  // Same shared-whitelist mechanics as AllowRuntimeFile: the verifier sees
  // the new boot digest immediately, ahead of the first upgraded quote.
  whitelist_->AllowBoot(digest);
}

void Enclave::AllowRuntimeFile(const std::string& path, const crypto::Digest& content) {
  // The verifier holds a shared view of this whitelist, so the update is
  // visible to continuous attestation immediately (the tenant "pushing a
  // new whitelist" on application rollout).
  whitelist_->AllowRuntime(ima::Ima::TemplateDigest(path, content));
}

std::vector<net::Address> Enclave::ServiceAddresses() const {
  std::vector<net::Address> addresses;
  addresses.push_back(cloud_.bmi().address());
  addresses.push_back(registrar_address_);
  addresses.push_back(verifier_->address());
  addresses.push_back(controller_.address());
  return addresses;
}

NodeState Enclave::node_state(const std::string& node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? NodeState::kFree : it->second.state;
}

storage::BlockDevice* Enclave::node_root_device(const std::string& node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.state != NodeState::kAllocated) {
    return nullptr;
  }
  if (it->second.merkle != nullptr) {
    return it->second.merkle.get();
  }
  if (it->second.crypt != nullptr) {
    return it->second.crypt.get();
  }
  return it->second.initiator.get();
}

machine::Machine* Enclave::node_machine(const std::string& node) {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.machine;
}

net::IpsecParams Enclave::ipsec_params() const {
  net::IpsecParams params;
  params.enabled = profile_.encrypt_network;
  params.hardware_aes = true;
  params.mtu = 9000;
  return params;
}

sim::Task Enclave::EnterAirlock(const std::string& node, NodeRuntime& rt) {
  hil::Hil& hil = cloud_.hil();
  rt.airlock_name = project_ + "-airlock-" + node;
  rt.airlock_vlan = hil.CreateNetwork(project_, rt.airlock_name);
  hil.ConnectNodeToNetwork(project_, node, rt.airlock_name);
  // The provider bridges the service trunk ports into the airlock so the
  // isolated server can reach provisioning/attestation/controller — and
  // nothing else.
  for (const net::Address service : ServiceAddresses()) {
    cloud_.BridgeServiceOntoVlan(service, rt.airlock_vlan);
  }
  co_await sim::Delay(cloud_.sim(), cloud_.cal().switch_reconfig_time);
  hil.PowerCycleNode(project_, node);
  co_await sim::Delay(cloud_.sim(), cloud_.cal().bmc_power_cycle_time);
  rt.state = NodeState::kAirlock;
}

void Enclave::DismantleAirlock(const std::string& node, NodeRuntime& rt) {
  for (const net::Address service : ServiceAddresses()) {
    cloud_.UnbridgeServiceFromVlan(service, rt.airlock_vlan);
  }
  cloud_.hil().DetachNodeFromNetwork(project_, node, rt.airlock_name);
  cloud_.hil().DeleteNetwork(project_, rt.airlock_name);
}

void Enclave::DeregisterFromVerifier(const std::string& node) {
  if (profile_.use_attestation) {
    verifier_->RemoveNode(node);
  }
}

void Enclave::ParkAgentAndFetcher(NodeRuntime& rt) {
  if (rt.agent != nullptr) {
    rt.agent->AttachIma(nullptr);
    retired_agents_.push_back(std::move(rt.agent));
  }
  if (rt.fetcher != nullptr) {
    retired_fetchers_.push_back(std::move(rt.fetcher));
  }
}

sim::Task Enclave::FetchWithRetry(machine::Machine& machine, std::string artifact,
                                  crypto::Digest* digest, bool* ok) {
  uint64_t bytes = 0;
  *ok = false;
  for (int attempt = 1; attempt <= kMaxFetchAttempts && !*ok; ++attempt) {
    if (attempt > 1) {
      co_await sim::Delay(cloud_.sim(), kFetchRetryBackoff * (attempt - 1));
    }
    co_await bmi::FetchArtifact(machine.rpc(), cloud_.bmi().address(), artifact, digest,
                                &bytes, ok);
  }
}

sim::Task Enclave::LeaveAirlockToEnclave(const std::string& node, NodeRuntime& rt) {
  hil::Hil& hil = cloud_.hil();
  DismantleAirlock(node, rt);
  hil.ConnectNodeToNetwork(project_, node, project_ + std::string(kEnclaveNetSuffix));
  // Data path to BMI (iSCSI) and, when attesting, the verifier's path to
  // the agent for continuous attestation.
  hil.ConnectNodeToNetwork(project_, node, "bolted-provisioning");
  if (profile_.use_attestation) {
    hil.ConnectNodeToNetwork(project_, node, "bolted-attestation");
  }
  co_await sim::Delay(cloud_.sim(), cloud_.cal().switch_reconfig_time);
}

sim::Task Enclave::RejectNode(const std::string& node, NodeRuntime& rt,
                              const std::string& reason, ProvisionOutcome* outcome) {
  DismantleAirlock(node, rt);
  cloud_.hil().ConnectNodeToNetwork(project_, node, "bolted-rejected");
  co_await sim::Delay(cloud_.sim(), cloud_.cal().switch_reconfig_time);
  rt.state = NodeState::kRejected;
  obs::Count(cloud_.sim(), "enclave.provision_reject");
  obs::Instant(cloud_.sim(), "enclave.reject", "provision", "provision:" + node,
               {{"node", node}, {"reason", reason}});
  // Clean abort: everything the half-provisioned node acquired is released
  // so a rejection never leaks verifier entries, payload splits, or image
  // clones.  The machine itself stays powered in the rejected pool for
  // examination (§4) until ReleaseNode reclaims it.
  DeregisterFromVerifier(node);
  splits_.erase(node);
  ParkAgentAndFetcher(rt);
  rt.ima.reset();
  rt.merkle.reset();
  rt.crypt.reset();
  rt.initiator.reset();
  if (rt.image != 0) {
    cloud_.bmi().ReleaseNodeImage(node, /*keep_snapshot=*/false);
    rt.image = 0;
  }
  if (outcome != nullptr) {
    outcome->success = false;
    outcome->state = NodeState::kRejected;
    outcome->failure = reason;
  }
}

sim::Task Enclave::DeliverUHalf(const std::string& node, NodeRuntime& rt, bool* ok) {
  *ok = false;
  const auto keys = registrar_->Lookup(node);
  if (!keys) {
    co_return;
  }
  const keylime::SplitPayload& split = splits_.at(node);
  const crypto::Bytes sealed_u = crypto::EciesSeal(keys->nk, split.u_half, drbg_);
  net::Message message;
  message.kind = std::string(keylime::kRpcDeliverU);
  message.payload = crypto::WireWriter().Blob(sealed_u).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await controller_.Call(rt.machine->address(), std::move(message), &response,
                            &rpc_ok);
  if (!rpc_ok) {
    co_return;
  }
  crypto::WireReader reader(response.payload);
  *ok = reader.U32() == 1 && reader.AtEnd();
}

sim::Task Enclave::AttestInAirlock(const std::string& node, NodeRuntime& rt, bool* ok,
                                   std::string* failure) {
  *ok = false;
  sim::Simulation& sim = cloud_.sim();
  const Calibration& cal = cloud_.cal();

  // Download the Keylime agent over HTTP from the provisioning service;
  // LinuxBoot measures it before executing it.  On a retry of this phase
  // the already-running agent is reused — recreating it would orphan the
  // machine's RPC handlers mid-flight.
  if (rt.agent == nullptr) {
    crypto::Digest agent_digest{};
    uint64_t agent_bytes = 0;
    bool fetch_ok = false;
    co_await bmi::FetchArtifact(rt.machine->rpc(), cloud_.bmi().address(),
                                "keylime-agent", &agent_digest, &agent_bytes,
                                &fetch_ok);
    if (!fetch_ok) {
      *failure = "agent download failed";
      co_return;
    }
    rt.machine->MeasureIntoPcr(tpm::kPcrBootloader, agent_digest, "keylime-agent");
    co_await sim::Delay(sim, cal.agent_start_time);
    const crypto::Bytes agent_seed = drbg_.Generate(8);
    uint64_t seed = 0;
    for (const uint8_t b : agent_seed) {
      seed = (seed << 8) | b;
    }
    rt.agent = std::make_unique<keylime::Agent>(*rt.machine, seed);
    rt.machine->set_power_state(machine::PowerState::kAgent);
  }

  bool reg_ok = false;
  co_await rt.agent->RegisterWithRegistrar(registrar_address_, node, &reg_ok);
  if (!reg_ok) {
    *failure = "registration failed";
    co_return;
  }

  // Anti-spoofing: the tenant checks the registrar-certified EK against
  // the provider-published metadata for the node it reserved.
  const auto keys = registrar_->Lookup(node);
  const auto published = cloud_.hil().GetNodeMetadata(node, "tpm_ek");
  if (!keys || !published ||
      crypto::ToHex(keys->ek.Encode()) != *published) {
    *failure = "EK mismatch: possible server spoofing";
    co_return;
  }

  // Per-node payload split; register with the verifier and attest.  The
  // split survives a transient retry so a late-arriving key half from the
  // previous attempt can never be mismatched against a fresh one.
  if (!splits_.contains(node)) {
    splits_[node] = keylime::SealPayload(payload_, drbg_);
  }
  keylime::Verifier::NodeConfig config;
  config.agent = rt.machine->address();
  config.whitelist = whitelist_;
  config.v_half = splits_[node].v_half;
  config.sealed_payload = splits_[node].sealed_payload;
  config.peers = member_addresses_;
  verifier_->AddNode(node, std::move(config));

  keylime::VerificationResult result;
  co_await verifier_->VerifyNode(node, &result);
  if (!result.passed) {
    *failure = result.failure;
    co_return;
  }

  // Tenant sends the U half directly to the agent; with the verifier's V
  // half the agent can open the payload.
  bool u_ok = false;
  co_await DeliverUHalf(node, rt, &u_ok);
  if (!u_ok) {
    *failure = "U-half delivery failed";
    co_return;
  }
  keylime::TenantPayload delivered;
  bool payload_ok = false;
  co_await rt.agent->AwaitPayload(&delivered, &payload_ok);
  if (!payload_ok || delivered != payload_) {
    *failure = "payload recombination failed";
    co_return;
  }

  // Keylime also ships the tenant kernel+initrd zip to the agent.
  net::Message kernel_zip;
  kernel_zip.kind = "kl.kernel-zip";
  kernel_zip.wire_bytes = payload_.kernel_bytes + payload_.initrd_bytes;
  co_await controller_.endpoint().Send(rt.machine->address(), std::move(kernel_zip));

  *ok = true;
}

void Enclave::InstallMeshKeys(const std::string& node, NodeRuntime& rt) {
  (void)node;  // identified by address below; name kept for symmetry/logging
  if (!profile_.encrypt_network) {
    return;
  }
  const net::Address self = rt.machine->address();
  for (const std::string& other : members_) {
    NodeRuntime& peer = nodes_.at(other);
    const net::Address peer_address = peer.machine->address();
    const crypto::Bytes key =
        keylime::DerivePairKey(payload_.network_key_seed, self, peer_address);
    rt.machine->ipsec().InstallSa(peer_address, key);
    peer.machine->ipsec().InstallSa(self, key);
  }
}

sim::Task Enclave::SetupStorageAndBoot(const std::string& node, NodeRuntime& rt) {
  sim::Simulation& sim = cloud_.sim();
  const Calibration& cal = cloud_.cal();

  const auto image = cloud_.bmi().CreateNodeImage(node, golden_image_);
  rt.image = image.value_or(0);

  storage::IscsiInitiator::Options options;
  options.read_ahead_bytes = cal.iscsi_read_ahead_bytes;
  options.ipsec = ipsec_params();
  options.ipsec_model = cal.ipsec;
  options.local_crypto_cpu = &rt.machine->crypto_cpu();
  options.remote_crypto_cpu = &cloud_.bmi_esp_cpu();  // server-side ESP
  rt.initiator = std::make_unique<storage::IscsiInitiator>(
      sim, rt.machine->rpc(), cloud_.bmi().address(), rt.image,
      cal.image_virtual_bytes, options);

  if (profile_.encrypt_disk) {
    // dm-crypt mapping keyed by the Keylime-delivered secret.
    storage::LuksVolume volume = storage::LuksVolume::Format(payload_.disk_secret, drbg_);
    auto crypt = volume.Open(sim, rt.initiator.get(), payload_.disk_secret, cal.luks,
                             node + ".luks");
    rt.crypt = std::move(*crypt);
  }

  InstallMeshKeys(node, rt);

  // kexec into the tenant kernel; IMA comes up with it.
  co_await rt.machine->KexecInto(payload_.kernel_digest, payload_.initrd_digest);
  ima::ImaPolicy policy;
  policy.measure_executables = true;
  rt.ima = std::make_unique<ima::Ima>(rt.machine->tpm(), policy);
  if (rt.agent != nullptr) {
    rt.agent->AttachIma(rt.ima.get());
  }

  // Kernel + userspace come up, reading the root filesystem over iSCSI;
  // init is mostly synchronous with its file reads (the paper's "slow
  // down in booting ... from the slower disk" under IPsec).
  storage::BlockDevice* root = rt.crypt != nullptr
                                   ? static_cast<storage::BlockDevice*>(rt.crypt.get())
                                   : rt.initiator.get();
  if (profile_.integrity_disk) {
    // Merkle integrity layer over the (possibly encrypted) root.  The
    // device is accounting-only here: hash verification rides the crypto
    // throughput in parallel with the backing reads, without ever
    // materialising a 20 GB tree.
    rt.merkle = std::make_unique<storage::MerkleBlockDevice>(
        sim, root, cal.image_virtual_bytes / storage::kSectorSize,
        /*cache_sectors=*/64, cal.merkle, node + ".merkle");
    root = rt.merkle.get();
  }
  co_await sim::Delay(sim, cal.kernel_init_time);

  provision::RackChunkCache* rack_cache =
      cloud_.rack_chunk_cache_for(rt.machine->address());
  if (rack_cache != nullptr) {
    // Content-addressed boot: pull the boot working set as verified chunks
    // through the rack cache (rack-local after the first node warms it)
    // instead of streaming it from the central store over iSCSI.
    storage::ChunkManifest manifest;
    bool manifest_ok = false;
    co_await bmi::FetchChunkManifest(rt.machine->rpc(), cloud_.bmi().address(),
                                     project_ + "-golden", &manifest, &manifest_ok);
    if (manifest_ok) {
      rt.fetcher = std::make_unique<provision::ChunkFetcher>(
          sim, rt.machine->rpc(), rack_cache->address(),
          &rt.machine->crypto_cpu());
      rt.fetcher->Start();
      bool fetch_ok = false;
      co_await rt.fetcher->FetchPrefix(manifest, cal.boot_read_bytes, &fetch_ok);
      if (fetch_ok) {
        if (rt.crypt != nullptr) {
          // Chunks are stored under the tenant's disk key; decrypting them
          // locally pays the same XTS ceiling as the iSCSI path would.
          co_await rt.crypt->decrypt_resource().Consume(
              static_cast<double>(cal.boot_read_bytes));
        }
        co_return;
      }
      // An unreachable rack cache degrades to the classic iSCSI path.
    }
  }

  const auto sequential = static_cast<uint64_t>(
      static_cast<double>(cal.boot_read_bytes) * cal.boot_sequential_fraction);
  co_await root->AccountRead(sequential);
  co_await root->AccountRandomRead(cal.boot_read_bytes - sequential,
                                   cal.boot_random_chunk_bytes);
}

sim::Task Enclave::ProvisionNode(const std::string& node, ProvisionOutcome* outcome) {
  sim::Simulation& sim = cloud_.sim();
  const Calibration& cal = cloud_.cal();
  // Naming the trace after the node routes the phase spans onto a per-node
  // track in the chrome-trace export, so concurrent provisions interleave
  // legibly instead of stacking on one row.
  outcome->trace.Start(sim, "provision:" + node);
  provision::PhaseTrace& trace = outcome->trace;

  machine::Machine* machine = cloud_.FindMachine(node);
  if (machine == nullptr || !cloud_.hil().ConnectNode(project_, node)) {
    outcome->failure = "node unavailable";
    co_return;
  }
  NodeRuntime& rt = nodes_[node];
  // An agent or fetcher left over from a prior life of this node (e.g. a
  // violation without a release) is parked before the runtime is replaced.
  ParkAgentAndFetcher(rt);
  rt = NodeRuntime{};
  rt.machine = machine;

  co_await EnterAirlock(node, rt);
  trace.Mark("allocate+airlock");

  co_await machine->PowerOnSelfTest();
  trace.Mark("POST");

  const bool flash_is_linuxboot = machine->flash_firmware().deterministic_build;
  if (!flash_is_linuxboot) {
    // Vendor UEFI path: PXE -> measured iPXE -> download + measure the
    // Heads/LinuxBoot runtime -> boot it.
    crypto::Digest digest{};
    bool ok = false;
    co_await FetchWithRetry(*machine, "ipxe", &digest, &ok);
    if (!ok) {
      co_await RejectNode(node, rt, "iPXE download failed", outcome);
      co_return;
    }
    machine->MeasureIntoPcr(tpm::kPcrBootloader, digest, "ipxe");
    trace.Mark("PXE/iPXE");

    co_await FetchWithRetry(*machine, "heads-runtime", &digest, &ok);
    if (!ok) {
      co_await RejectNode(node, rt, "LinuxBoot download failed", outcome);
      co_return;
    }
    machine->MeasureIntoPcr(tpm::kPcrBootloader, digest, "heads-runtime");
    trace.Mark("download LinuxBoot");

    co_await sim::Delay(sim, cal.linuxboot_init_time);
    if (machine->memory_dirty()) {
      co_await machine->ScrubMemory();
    }
    trace.Mark("LinuxBoot boot");
  } else {
    co_await sim::Delay(sim, cal.linuxboot_init_time);
    trace.Mark("LinuxBoot boot");
  }

  if (profile_.use_attestation) {
    // The prototype supports one airlock attestation at a time (Fig. 5).
    co_await cloud_.airlock_slots().Acquire();
    bool ok = false;
    std::string failure;
    {
      sim::SemaphoreGuard slot(cloud_.airlock_slots());
      // Transient attestation failures (lost frames, a slow TPM, a flapped
      // link) are retried inside the airlock; integrity failures reject
      // immediately — re-measuring a bad node cannot make it good.
      for (int attempt = 1; attempt <= kMaxAttestAttempts; ++attempt) {
        if (attempt > 1) {
          co_await sim::Delay(sim, kAttestRetryBackoff * (attempt - 1));
        }
        co_await AttestInAirlock(node, rt, &ok, &failure);
        if (ok || !IsTransientProvisionFailure(failure)) {
          break;
        }
      }
    }
    if (!ok) {
      co_await RejectNode(node, rt, failure, outcome);
      co_return;
    }
    trace.Mark("attestation");
  } else {
    // Alice: fetch the kernel straight from the provisioning service.
    crypto::Digest digest{};
    bool ok = false;
    co_await FetchWithRetry(*machine, project_ + "-kernel-zip", &digest, &ok);
    if (!ok) {
      co_await RejectNode(node, rt, "kernel download failed", outcome);
      co_return;
    }
    trace.Mark("fetch kernel");
  }

  co_await LeaveAirlockToEnclave(node, rt);
  trace.Mark("move to enclave");

  co_await SetupStorageAndBoot(node, rt);
  trace.Mark("kexec+kernel boot");

  rt.state = NodeState::kAllocated;
  members_.push_back(node);
  member_addresses_->push_back(machine->address());
  if (profile_.use_attestation && profile_.continuous_attestation) {
    verifier_->StartContinuous(node, cal.continuous_attestation_interval);
  }
  outcome->success = true;
  outcome->state = NodeState::kAllocated;
  obs::Count(sim, "enclave.provision_success");
}

sim::Task Enclave::ReleaseNode(const std::string& node, bool keep_snapshot) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    co_return;
  }
  NodeRuntime& rt = it->second;
  DeregisterFromVerifier(node);
  splits_.erase(node);
  ParkAgentAndFetcher(rt);
  if (rt.image != 0) {
    cloud_.bmi().ReleaseNodeImage(node, keep_snapshot);
  }
  // Drop mesh keys on the remaining members.
  const net::Address self = rt.machine->address();
  for (const std::string& other : members_) {
    if (other != node) {
      nodes_.at(other).machine->ipsec().RemoveSa(self);
    }
  }
  std::erase(members_, node);
  std::erase(*member_addresses_, self);
  // HIL detach: off every network, power-cycled (which also marks memory
  // dirty; LinuxBoot scrubs before the next occupant).
  cloud_.hil().DetachNode(project_, node);
  co_await sim::Delay(cloud_.sim(), cloud_.cal().switch_reconfig_time);
  nodes_.erase(it);
}

bool Enclave::ExecuteBinary(const std::string& node, const std::string& path,
                            const crypto::Digest& content, bool whitelisted_already) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.state != NodeState::kAllocated ||
      it->second.ima == nullptr) {
    return false;
  }
  if (whitelisted_already) {
    AllowRuntimeFile(path, content);
  }
  ima::FileAccess access;
  access.path = path;
  access.content_digest = content;
  access.is_executable = true;
  access.by_root = true;
  it->second.ima->OnFileAccess(access);
  return true;
}

void Enclave::HandleViolation(const std::string& node, const std::string& reason) {
  cloud_.sim().Spawn(ViolationResponse(node, reason));
}

sim::Task Enclave::ViolationResponse(std::string node, std::string reason) {
  // The verifier already revoked the node's keys on every peer; the
  // tenant script now cuts it out of the enclave network entirely.
  const auto it = nodes_.find(node);
  if (it != nodes_.end()) {
    cloud_.hil().DetachNodeFromNetwork(project_, node,
                                       project_ + std::string(kEnclaveNetSuffix));
    it->second.state = NodeState::kRejected;
    std::erase(members_, node);
    std::erase(*member_addresses_, it->second.machine->address());
  }
  if (violation_handler_) {
    violation_handler_(node, reason);
  }
  co_return;
}

}  // namespace bolted::core
