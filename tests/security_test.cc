// Threat-model tests (§2, §6): each of the paper's adversaries mounted
// end-to-end against the full stack, checking that the promised defence
// (and only that defence) stops it.
//
//   prior to occupancy:  firmware implants, server spoofing, stale state
//   during occupancy:    provider/tenant eavesdropping, payload tampering,
//                        ESP replay, runtime compromise
//   after occupancy:     residual disk/memory state

#include <gtest/gtest.h>

#include "src/core/cloud.h"
#include "src/core/enclave.h"
#include "src/crypto/ecies.h"
#include "src/crypto/wire.h"
#include "src/firmware/firmware.h"
#include "src/keylime/agent.h"

namespace bolted::core {
namespace {

using sim::Task;

CloudConfig SmallCloud() {
  CloudConfig config;
  config.num_machines = 4;
  config.linuxboot_in_flash = true;
  return config;
}

// --- Prior to occupancy ----------------------------------------------------

TEST(SecurityTest, PreviousTenantFirmwareImplantCaughtByAttestation) {
  Cloud cloud(SmallCloud());
  // The previous tenant exploited a firmware bug and left an implant.
  cloud.FindMachine("node-0")->ReflashFirmware(
      firmware::CompromisedVariant(cloud.linuxboot(), "bootkit"));

  Enclave victim(cloud, "victim", TrustProfile::Charlie(), 1);
  ProvisionOutcome outcome;
  auto flow = [&]() -> Task { co_await victim.ProvisionNode("node-0", &outcome); };
  cloud.sim().Spawn(flow());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(600'000'000'000));

  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.state, NodeState::kRejected);
  // Crucially: the rejected machine never receives the tenant payload —
  // no disk keys, no network keys, no kernel.
  EXPECT_EQ(cloud.FindMachine("node-0")->ipsec().sa_count(), 0u);
}

TEST(SecurityTest, RogueAdminUefiReflashCaughtOnUefiPath) {
  CloudConfig config = SmallCloud();
  config.linuxboot_in_flash = false;  // vendor UEFI in flash
  Cloud cloud(config);
  cloud.FindMachine("node-0")->ReflashFirmware(
      firmware::CompromisedVariant(cloud.uefi(), "admin-backdoor"));

  Enclave victim(cloud, "victim", TrustProfile::Bob(), 2);
  ProvisionOutcome outcome;
  auto flow = [&]() -> Task { co_await victim.ProvisionNode("node-0", &outcome); };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.state, NodeState::kRejected);
}

TEST(SecurityTest, QuoteFromAForeignTpmIsRejected) {
  // Server spoofing: the quote verifies under *some* AIK, but that AIK's
  // EK does not match what the provider published for the reserved node.
  Cloud cloud(SmallCloud());
  // The adversary swaps the published EK metadata to simulate handing the
  // tenant a different physical box under the same name.
  cloud.hil().SetNodeMetadata(
      "node-0", "tpm_ek",
      crypto::ToHex(cloud.FindMachine("node-1")->tpm().ek_public().Encode()));

  Enclave victim(cloud, "victim", TrustProfile::Bob(), 3);
  ProvisionOutcome outcome;
  auto flow = [&]() -> Task { co_await victim.ProvisionNode("node-0", &outcome); };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_FALSE(outcome.success);
  EXPECT_NE(outcome.failure.find("spoofing"), std::string::npos) << outcome.failure;
}

TEST(SecurityTest, AirlockIsolatesBootingServerFromOtherTenants) {
  Cloud cloud(SmallCloud());
  Enclave victim(cloud, "victim", TrustProfile::Bob(), 4);
  Enclave attacker(cloud, "attacker", TrustProfile::Alice(), 5);

  ProvisionOutcome attacker_outcome;
  bool checked = false;
  auto flow = [&]() -> Task {
    // The attacker already has a node.
    co_await attacker.ProvisionNode("node-1", &attacker_outcome);
    // Victim starts provisioning; while its node sits in the airlock the
    // attacker's allocated node must not be able to reach it.
    ProvisionOutcome victim_outcome;
    sim::TaskGroup group(cloud.sim());
    auto provision = [&]() -> Task {
      co_await victim.ProvisionNode("node-0", &victim_outcome);
    };
    auto probe = [&]() -> Task {
      co_await sim::Delay(cloud.sim(), sim::Duration::Seconds(90));  // mid-airlock
      const net::Address victim_addr = cloud.FindMachine("node-0")->address();
      const net::Address attacker_addr = cloud.FindMachine("node-1")->address();
      EXPECT_FALSE(cloud.fabric().Reachable(attacker_addr, victim_addr));
      checked = true;
    };
    group.Spawn(provision());
    group.Spawn(probe());
    co_await group.WaitAll();
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_TRUE(checked);
}

// --- During occupancy --------------------------------------------------------

TEST(SecurityTest, ProviderSnifferSeesOnlyCiphertextForCharlie) {
  Cloud cloud(SmallCloud());
  Enclave charlie(cloud, "charlie", TrustProfile::Charlie(), 6);

  ProvisionOutcome o1;
  ProvisionOutcome o2;
  auto provision = [&]() -> Task {
    co_await charlie.ProvisionNode("node-0", &o1);
    co_await charlie.ProvisionNode("node-1", &o2);
  };
  cloud.sim().Spawn(provision());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(600'000'000'000));
  ASSERT_TRUE(o1.success && o2.success);

  const std::string secret = "TOP-SECRET model weights";
  crypto::Bytes sniffed;
  cloud.fabric().SetSniffer([&](net::VlanId, const net::Message& m) {
    if (m.kind == "app.data") {
      sniffed = m.payload;
    }
  });

  machine::Machine* m0 = charlie.node_machine("node-0");
  machine::Machine* m1 = charlie.node_machine("node-1");
  const auto wire = m0->ipsec().Seal(m1->address(), crypto::ToBytes(secret));
  ASSERT_TRUE(wire.has_value());
  m0->endpoint().Post(m1->address(), net::Message{.kind = "app.data", .payload = *wire});
  cloud.sim().RunUntil(cloud.sim().now() + sim::Duration::Seconds(2));

  ASSERT_FALSE(sniffed.empty());
  // The plaintext must not appear anywhere in the captured frame.
  const std::string captured(sniffed.begin(), sniffed.end());
  EXPECT_EQ(captured.find(secret), std::string::npos);
  // But the legitimate peer decrypts it.
  const auto opened = m1->ipsec().Open(m0->address(), sniffed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, crypto::ToBytes(secret));
}

TEST(SecurityTest, ProviderCannotForgeOrReplayEspTraffic) {
  Cloud cloud(SmallCloud());
  Enclave charlie(cloud, "charlie", TrustProfile::Charlie(), 7);
  ProvisionOutcome o1;
  ProvisionOutcome o2;
  auto provision = [&]() -> Task {
    co_await charlie.ProvisionNode("node-0", &o1);
    co_await charlie.ProvisionNode("node-1", &o2);
  };
  cloud.sim().Spawn(provision());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(600'000'000'000));
  ASSERT_TRUE(o1.success && o2.success);

  machine::Machine* m0 = charlie.node_machine("node-0");
  machine::Machine* m1 = charlie.node_machine("node-1");
  auto wire = m0->ipsec().Seal(m1->address(), crypto::ToBytes("order: retreat"));
  ASSERT_TRUE(wire.has_value());
  ASSERT_TRUE(m1->ipsec().Open(m0->address(), *wire).has_value());
  // Replay of the captured frame: rejected.
  EXPECT_FALSE(m1->ipsec().Open(m0->address(), *wire).has_value());
  // Bit-flipped forgery: rejected.
  auto forged = *m0->ipsec().Seal(m1->address(), crypto::ToBytes("order: attack"));
  forged[forged.size() / 2] ^= 0x40;
  EXPECT_FALSE(m1->ipsec().Open(m0->address(), forged).has_value());
}

TEST(SecurityTest, VerifierNeverSeesTheBootstrapKey) {
  // The U/V split: the cloud verifier holds V and the sealed payload; a
  // compromised verifier alone cannot open the tenant payload.
  crypto::Drbg drbg(uint64_t{8});
  keylime::TenantPayload payload;
  payload.disk_secret = crypto::Bytes(32, 0x77);
  payload.boot_script = "secrets";
  const keylime::SplitPayload split = keylime::SealPayload(payload, drbg);

  // Everything a malicious CV knows: v_half + sealed_payload.
  EXPECT_FALSE(keylime::OpenPayload(crypto::Bytes(32, 0x00), split.v_half,
                                    split.sealed_payload)
                   .has_value());
  EXPECT_FALSE(keylime::OpenPayload(split.v_half, split.v_half,
                                    split.sealed_payload)
                   .has_value());
}

TEST(SecurityTest, PayloadDeliveryBindsToTheAgentsNodeKey) {
  // A MITM in the provider's network cannot decrypt the U half sealed to
  // the agent's per-boot node key.
  Cloud cloud(SmallCloud());
  Enclave charlie(cloud, "charlie", TrustProfile::Charlie(), 9);
  ProvisionOutcome outcome;
  auto provision = [&]() -> Task {
    co_await charlie.ProvisionNode("node-0", &outcome);
  };
  cloud.sim().Spawn(provision());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(600'000'000'000));
  ASSERT_TRUE(outcome.success);

  crypto::Drbg drbg(uint64_t{10});
  const auto keys = cloud.provider_registrar().Lookup("node-0");
  // Charlie runs his own registrar; the provider one knows nothing.
  EXPECT_FALSE(keys.has_value());
}

TEST(SecurityTest, RuntimeCompromiseTriggersFullQuarantine) {
  Cloud cloud(SmallCloud());
  Enclave charlie(cloud, "charlie", TrustProfile::Charlie(), 11);
  ProvisionOutcome o1;
  ProvisionOutcome o2;
  ProvisionOutcome o3;
  auto flow = [&]() -> Task {
    co_await charlie.ProvisionNode("node-0", &o1);
    co_await charlie.ProvisionNode("node-1", &o2);
    co_await charlie.ProvisionNode("node-2", &o3);
    co_await sim::Delay(cloud.sim(), sim::Duration::Seconds(5));
    charlie.ExecuteBinary("node-2", "/tmp/implant",
                          crypto::Sha256::Hash("implant"), false);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(1'500'000'000'000));

  ASSERT_TRUE(o1.success && o2.success && o3.success);
  EXPECT_EQ(charlie.node_state("node-2"), NodeState::kRejected);
  machine::Machine* bad = cloud.FindMachine("node-2");
  // Every healthy member dropped the SA...
  EXPECT_FALSE(charlie.node_machine("node-0")->ipsec().HasSa(bad->address()));
  EXPECT_FALSE(charlie.node_machine("node-1")->ipsec().HasSa(bad->address()));
  // ...and the healthy pair keeps working.
  EXPECT_TRUE(charlie.node_machine("node-0")->ipsec().HasSa(
      charlie.node_machine("node-1")->address()));
  // The quarantined node is off the enclave VLAN.
  EXPECT_EQ(charlie.members().size(), 2u);
}

// The verifier reads the enclave's member list when it revokes, not when
// the node registered: node-0 registered before either peer joined, and
// both must still drop its SA.
TEST(SecurityTest, RevocationReachesMembersThatJoinedLater) {
  Cloud cloud(SmallCloud());
  Enclave charlie(cloud, "charlie", TrustProfile::Charlie(), 11);
  ProvisionOutcome o1;
  ProvisionOutcome o2;
  ProvisionOutcome o3;
  machine::Machine* bad = cloud.FindMachine("node-0");
  bool peers_held_sa = false;
  auto flow = [&]() -> Task {
    co_await charlie.ProvisionNode("node-0", &o1);
    co_await charlie.ProvisionNode("node-1", &o2);
    co_await charlie.ProvisionNode("node-2", &o3);
    co_await sim::Delay(cloud.sim(), sim::Duration::Seconds(5));
    peers_held_sa =
        charlie.node_machine("node-1")->ipsec().HasSa(bad->address()) &&
        charlie.node_machine("node-2")->ipsec().HasSa(bad->address());
    charlie.ExecuteBinary("node-0", "/tmp/implant",
                          crypto::Sha256::Hash("implant"), false);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(1'500'000'000'000));

  ASSERT_TRUE(o1.success && o2.success && o3.success);
  ASSERT_TRUE(peers_held_sa);
  EXPECT_EQ(charlie.node_state("node-0"), NodeState::kRejected);
  EXPECT_FALSE(charlie.node_machine("node-1")->ipsec().HasSa(bad->address()));
  EXPECT_FALSE(charlie.node_machine("node-2")->ipsec().HasSa(bad->address()));
  EXPECT_TRUE(charlie.node_machine("node-1")->ipsec().HasSa(
      charlie.node_machine("node-2")->address()));
  EXPECT_EQ(charlie.members(), (std::vector<std::string>{"node-1", "node-2"}));
}

// --- After occupancy ----------------------------------------------------------

TEST(SecurityTest, ReleasedServerLeaksNothingToTheNextTenant) {
  Cloud cloud(SmallCloud());
  Enclave first(cloud, "first", TrustProfile::Charlie(), 12);

  ProvisionOutcome outcome;
  auto flow = [&]() -> Task {
    co_await first.ProvisionNode("node-0", &outcome);
    co_await first.ReleaseNode("node-0");
  };
  cloud.sim().Spawn(flow());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(600'000'000'000));
  ASSERT_TRUE(outcome.success);

  machine::Machine* machine = cloud.FindMachine("node-0");
  // Network state gone: off every VLAN, SAs wiped with the power cycle?
  // (SA store survives our model's reset; the *keys* were revoked by the
  // enclave release path and the clone destroyed.)
  EXPECT_TRUE(machine->endpoint().vlans().empty());
  EXPECT_FALSE(cloud.bmi().NodeImage("node-0").has_value());
  // DRAM still holds the first tenant's data (memory_dirty) — which is
  // exactly why the *next* tenant must attest that LinuxBoot (which
  // scrubs) is the firmware before trusting the machine.
  EXPECT_TRUE(machine->memory_dirty());

  Enclave second(cloud, "second", TrustProfile::Charlie(), 13);
  ProvisionOutcome second_outcome;
  auto reuse = [&]() -> Task {
    co_await second.ProvisionNode("node-0", &second_outcome);
  };
  cloud.sim().Spawn(reuse());
  cloud.sim().RunUntil(sim::Time::FromNanoseconds(1'200'000'000'000));
  ASSERT_TRUE(second_outcome.success) << second_outcome.failure;
  // LinuxBoot scrubbed before the second tenant's code ran.
  EXPECT_FALSE(machine->memory_dirty());
}

TEST(SecurityTest, DiskContentUnreadableWithoutTheLuksSecret) {
  // The provider (or a later tenant) reading the network-mounted volume
  // raw sees XTS ciphertext; LUKS refuses the wrong secret.
  sim::Simulation simu;
  crypto::Drbg drbg(uint64_t{14});
  storage::RamDisk backing(simu, 1024, 5e9, 3.5e9, "backing");
  const storage::LuksVolume volume =
      storage::LuksVolume::Format(crypto::ToBytes("keylime-delivered"), drbg);
  auto device = volume.Open(simu, &backing, crypto::ToBytes("keylime-delivered"),
                            storage::CryptCostModel{}, "v");
  ASSERT_TRUE(device.has_value());

  const crypto::Bytes tenant_data(storage::kSectorSize, 0x42);
  crypto::Bytes raw;
  auto flow = [&]() -> Task {
    co_await (*device)->WriteSectors(7, tenant_data);
    co_await backing.ReadSectors(7, 1, &raw);
  };
  simu.Spawn(flow());
  simu.Run();
  EXPECT_NE(raw, tenant_data);
  EXPECT_FALSE(volume.Unlock(crypto::ToBytes("provider guess")).has_value());
}

}  // namespace
}  // namespace bolted::core
