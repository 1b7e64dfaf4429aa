// Keylime tests: payload split/seal, registrar credential activation over
// the network, agent quote service, verifier whitelist/replay checks, and
// the continuous-attestation revocation flow — all at the protocol level
// (the end-to-end flows are covered in core_test.cc).

#include <gtest/gtest.h>

#include "src/crypto/ecies.h"
#include "src/crypto/wire.h"
#include "src/keylime/agent.h"
#include "src/keylime/payload.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"

namespace bolted::keylime {
namespace {

using crypto::Bytes;
using crypto::ToBytes;
using sim::Task;

TEST(PayloadTest, SerializeDeserializeRoundTrip) {
  TenantPayload payload;
  payload.kernel_digest = crypto::Sha256::Hash("kernel");
  payload.initrd_digest = crypto::Sha256::Hash("initrd");
  payload.kernel_bytes = 8 << 20;
  payload.initrd_bytes = 45 << 20;
  payload.disk_secret = Bytes(32, 0xd1);
  payload.network_key_seed = Bytes(32, 0xb0);
  payload.boot_script = "kexec --into the-future";

  const auto parsed = TenantPayload::Deserialize(payload.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, payload);
}

TEST(PayloadTest, DeserializeRejectsTruncation) {
  TenantPayload payload;
  payload.disk_secret = Bytes(32, 1);
  Bytes wire = payload.Serialize();
  wire.pop_back();
  EXPECT_FALSE(TenantPayload::Deserialize(wire).has_value());
  wire = payload.Serialize();
  wire.push_back(0);
  EXPECT_FALSE(TenantPayload::Deserialize(wire).has_value());
}

TEST(PayloadTest, SplitRequiresBothHalves) {
  crypto::Drbg drbg(uint64_t{1});
  TenantPayload payload;
  payload.disk_secret = Bytes(32, 0xaa);
  payload.boot_script = "script";
  const SplitPayload split = SealPayload(payload, drbg);

  const auto opened = OpenPayload(split.u_half, split.v_half, split.sealed_payload);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);

  // One half alone (or a corrupted half) is useless.
  EXPECT_FALSE(OpenPayload(split.u_half, Bytes(32, 0), split.sealed_payload)
                   .has_value());
  EXPECT_FALSE(OpenPayload(Bytes(32, 0), split.v_half, split.sealed_payload)
                   .has_value());
  Bytes bad_u = split.u_half;
  bad_u[0] ^= 1;
  EXPECT_FALSE(OpenPayload(bad_u, split.v_half, split.sealed_payload).has_value());
  EXPECT_FALSE(OpenPayload(Bytes(16, 0), split.v_half, split.sealed_payload)
                   .has_value());
}

TEST(PayloadTest, PairKeyDerivationIsSymmetricAndPairwise) {
  const Bytes seed(32, 0x5e);
  EXPECT_EQ(DerivePairKey(seed, 3, 9), DerivePairKey(seed, 9, 3));
  EXPECT_NE(DerivePairKey(seed, 3, 9), DerivePairKey(seed, 3, 10));
  EXPECT_NE(DerivePairKey(seed, 3, 9), DerivePairKey(Bytes(32, 0x00), 3, 9));
  EXPECT_EQ(DerivePairKey(seed, 3, 9).size(), 32u);
}

TEST(EciesTest, SealOpenAndWrongKey) {
  crypto::Drbg drbg(uint64_t{2});
  const crypto::P256& curve = crypto::P256::Instance();
  const crypto::U256 priv = curve.PrivateKeyFromSeed(ToBytes("nk"));
  const crypto::EcPoint pub = curve.PublicKey(priv);

  const Bytes blob = crypto::EciesSeal(pub, ToBytes("U half"), drbg);
  const auto opened = crypto::EciesOpen(priv, blob);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, ToBytes("U half"));

  const crypto::U256 other = curve.PrivateKeyFromSeed(ToBytes("other"));
  EXPECT_FALSE(crypto::EciesOpen(other, blob).has_value());
  EXPECT_FALSE(crypto::EciesOpen(priv, Bytes(10, 0)).has_value());
}

// --- Networked protocol fixtures -----------------------------------------

struct KeylimeFixture : public ::testing::Test {
  sim::Simulation sim{123};
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  machine::MachineConfig mc;
  std::unique_ptr<machine::Machine> machine;
  net::Endpoint& registrar_ep{fabric.CreateEndpoint("registrar")};
  net::Endpoint& verifier_ep{fabric.CreateEndpoint("verifier")};
  std::unique_ptr<Registrar> registrar;
  std::unique_ptr<Verifier> verifier;
  std::unique_ptr<Agent> agent;

  void SetUp() override {
    mc.flash_firmware = firmware::BuildLinuxBoot("src");
    machine = std::make_unique<machine::Machine>(sim, fabric, "node-x", mc);
    registrar = std::make_unique<Registrar>(sim, registrar_ep, 1);
    verifier = std::make_unique<Verifier>(sim, verifier_ep,
                                          registrar_ep.address(), 2);
    agent = std::make_unique<Agent>(*machine, 3);
    // Everyone shares one attestation VLAN for these protocol tests.
    for (net::Address a : {machine->address(), registrar_ep.address(),
                           verifier_ep.address()}) {
      fabric.AttachToVlan(a, 50);
    }
  }

  std::shared_ptr<Whitelist> WhitelistForMachine() {
    auto whitelist = std::make_shared<Whitelist>();
    whitelist->AllowBoot(mc.flash_firmware.digest);
    return whitelist;
  }

  bool Register() {
    bool ok = false;
    auto flow = [&]() -> Task {
      co_await agent->RegisterWithRegistrar(registrar_ep.address(), "node-x", &ok);
    };
    sim.Spawn(flow());
    sim.Run();
    return ok;
  }

  VerificationResult Verify() {
    VerificationResult result;
    auto flow = [&]() -> Task { co_await verifier->VerifyNode("node-x", &result); };
    sim.Spawn(flow());
    sim.Run();
    return result;
  }

  // Registers and boots node-x, seals a fresh tenant payload and adds the
  // node to the verifier with its V half and sealed payload.
  void AddNodeWithPayload() {
    ASSERT_TRUE(Register());
    auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
    sim.Spawn(boot());
    sim.Run();
    payload.disk_secret = Bytes(32, 0x99);
    payload.boot_script = "hello";
    split = SealPayload(payload, drbg);
    AddNodeX();
  }

  void AddNodeX() {
    Verifier::NodeConfig config;
    config.agent = machine->address();
    config.whitelist = WhitelistForMachine();
    config.v_half = split.v_half;
    config.sealed_payload = split.sealed_payload;
    verifier->AddNode("node-x", std::move(config));
  }

  static constexpr sim::Duration kPollInterval = sim::Duration::Seconds(2);

  // Adds node-x (attestation only, no payload) and starts its loop.
  void StartPolling() {
    Verifier::NodeConfig config;
    config.agent = machine->address();
    config.whitelist = WhitelistForMachine();
    verifier->AddNode("node-x", std::move(config));
    verifier->StartContinuous("node-x", kPollInterval);
  }

  uint64_t VerificationsInNextMinute() {
    const uint64_t before = verifier->verifications();
    sim.RunUntil(sim.now() + sim::Duration::Seconds(60));
    return verifier->verifications() - before;
  }

  // What one loop does in the minute after it starts; node-x is removed
  // again afterwards and the loop has ended.
  uint64_t OneLoopVerificationsPerMinute() {
    StartPolling();
    const uint64_t count = VerificationsInNextMinute();
    verifier->RemoveNode("node-x");
    sim.RunUntil(sim.now() + sim::Duration::Seconds(10));
    return count;
  }

  // The tenant sends U directly (sealed to the agent NK).  True once the
  // agent has recombined the payload, which needs the verifier's V too.
  bool TenantOpensPayload(TenantPayload* received) {
    net::Endpoint& tenant_ep = fabric.CreateEndpoint("tenant");
    fabric.AttachToVlan(tenant_ep.address(), 50);
    net::RpcNode tenant(sim, tenant_ep);
    tenant.Start();
    const Bytes sealed_u =
        crypto::EciesSeal(agent->node_key_public(), split.u_half, drbg);
    bool got = false;
    auto deliver = [&]() -> Task {
      net::Message message;
      message.kind = std::string(kRpcDeliverU);
      message.payload = crypto::WireWriter().Blob(sealed_u).Take();
      net::Message response;
      bool ok = false;
      co_await tenant.Call(machine->address(), std::move(message), &response, &ok);
      EXPECT_TRUE(ok);
      co_await agent->AwaitPayload(received, &got);
    };
    sim.Spawn(deliver());
    sim.Run();
    return got;
  }

  // What happens to node-x while its quote is pending.
  enum class MidPoll { kRemove, kRemoveAndAdd, kAddAgain };
  static constexpr MidPoll kMidPolls[] = {MidPoll::kRemove, MidPoll::kRemoveAndAdd,
                                          MidPoll::kAddAgain};

  // Adds node-x, starts a verification of it (a fleet round of one when
  // `fleet`) and, 500 ms in, while the agent's quote is still inside its
  // TPM latency, removes the node, removes and adds it back, or adds it
  // again over itself.
  VerificationResult VerifyChangingNodeMidPoll(bool fleet, MidPoll mid_poll) {
    AddNodeX();
    VerificationResult result;
    const std::string names[] = {"node-x"};
    auto flow = [&]() -> Task {
      if (fleet) {
        co_await verifier->VerifyFleet(names, &result);
      } else {
        co_await verifier->VerifyNode("node-x", &result);
      }
    };
    sim.Spawn(flow());
    sim.RunUntil(sim.now() + sim::Duration::Milliseconds(500));
    if (mid_poll != MidPoll::kAddAgain) {
      verifier->RemoveNode("node-x");
    }
    if (mid_poll != MidPoll::kRemove) {
      AddNodeX();
    }
    sim.Run();
    return result;
  }

  TenantPayload payload;
  SplitPayload split;
  crypto::Drbg drbg{uint64_t{9}};
};

TEST_F(KeylimeFixture, RegistrationActivatesAik) {
  EXPECT_TRUE(Register());
  const auto keys = registrar->Lookup("node-x");
  ASSERT_TRUE(keys.has_value());
  EXPECT_TRUE(keys->activated);
  EXPECT_EQ(keys->ek, machine->tpm().ek_public());
  EXPECT_EQ(keys->aik, machine->tpm().aik_public());
  EXPECT_EQ(keys->nk, agent->node_key_public());
}

TEST_F(KeylimeFixture, RegistrationFailsWhenRegistrarUnreachable) {
  fabric.DetachFromAllVlans(registrar_ep.address());
  EXPECT_FALSE(Register());
}

TEST_F(KeylimeFixture, VerifyPassesForWhitelistedBootChain) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));

  const VerificationResult result = Verify();
  EXPECT_TRUE(result.passed) << result.failure;
}

TEST_F(KeylimeFixture, VerifyFailsForUnwhitelistedFirmware) {
  ASSERT_TRUE(Register());
  machine->ReflashFirmware(
      firmware::CompromisedVariant(mc.flash_firmware, "implant"));
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));

  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.failure.find("unwhitelisted boot measurement"),
            std::string::npos);
}

TEST_F(KeylimeFixture, VerifyFailsWithoutActivation) {
  // A quote from an AIK that never completed credential activation is
  // not trusted, even if the whitelist would match.
  machine->tpm().CreateAik();
  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));
  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
}

TEST_F(KeylimeFixture, VerifyFailsForUnknownNode) {
  VerificationResult result;
  auto flow = [&]() -> Task { co_await verifier->VerifyNode("ghost", &result); };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure, "unknown node");
}

TEST_F(KeylimeFixture, PayloadDeliveredAfterSuccessfulVerification) {
  AddNodeWithPayload();
  ASSERT_TRUE(Verify().passed);

  TenantPayload received;
  ASSERT_TRUE(TenantOpensPayload(&received));
  EXPECT_EQ(received, payload);
}

// A node removed while its verification waits on the agent's quote, or
// added again (with or without a remove first), is an unknown node to
// that verification: it reads nothing freed and delivers no payload.
TEST_F(KeylimeFixture, NodeRemovedDuringVerifyNodeIsUnknown) {
  AddNodeWithPayload();
  for (const MidPoll mid_poll : kMidPolls) {
    const VerificationResult result = VerifyChangingNodeMidPoll(false, mid_poll);
    EXPECT_FALSE(result.passed);
    EXPECT_EQ(result.failure, "unknown node")
        << "mid_poll=" << static_cast<int>(mid_poll);
  }
  TenantPayload received;
  EXPECT_FALSE(TenantOpensPayload(&received));
}

TEST_F(KeylimeFixture, NodeRemovedDuringFleetRoundIsUnknown) {
  AddNodeWithPayload();
  for (const MidPoll mid_poll : kMidPolls) {
    const VerificationResult result = VerifyChangingNodeMidPoll(true, mid_poll);
    EXPECT_FALSE(result.passed);
    EXPECT_EQ(result.failure, "unknown node")
        << "mid_poll=" << static_cast<int>(mid_poll);
  }
  TenantPayload received;
  EXPECT_FALSE(TenantOpensPayload(&received));
}

TEST_F(KeylimeFixture, RepeatedVerificationsHitThePreparedAikCache) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));

  // First poll decodes, curve-checks, and tables the AIK; every later
  // poll reuses the prepared key as long as the registrar's encoding is
  // unchanged.
  EXPECT_TRUE(Verify().passed);
  EXPECT_EQ(verifier->aik_cache_misses(), 1u);
  EXPECT_EQ(verifier->aik_cache_hits(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Verify().passed);
  }
  EXPECT_EQ(verifier->aik_cache_misses(), 1u);
  EXPECT_EQ(verifier->aik_cache_hits(), 3u);

  // Re-registration (the agent creates a fresh AIK) changes the wire
  // encoding: exactly one more miss, then hits again.
  ASSERT_TRUE(Register());
  EXPECT_TRUE(Verify().passed);
  EXPECT_EQ(verifier->aik_cache_misses(), 2u);
  EXPECT_EQ(verifier->aik_cache_hits(), 3u);
  EXPECT_TRUE(Verify().passed);
  EXPECT_EQ(verifier->aik_cache_hits(), 4u);
}

TEST_F(KeylimeFixture, ContinuousAttestationRevokesOnViolation) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  // A peer machine holding an SA for node-x.
  machine::Machine peer(sim, fabric, "peer", mc);
  fabric.AttachToVlan(peer.address(), 50);
  Agent peer_agent(peer, 4);
  peer.ipsec().InstallSa(machine->address(), Bytes(32, 0x42));

  auto whitelist = WhitelistForMachine();
  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = whitelist;
  config.peers = std::make_shared<const std::vector<net::Address>>(
      std::vector<net::Address>{peer.address(), machine->address()});
  verifier->AddNode("node-x", std::move(config));

  std::string violated;
  verifier->SetViolationCallback(
      [&](const std::string& node, const std::string&) { violated = node; });
  verifier->StartContinuous("node-x", sim::Duration::Seconds(2));

  // Healthy for a while...
  sim.RunUntil(sim.now() + sim::Duration::Seconds(10));
  EXPECT_TRUE(violated.empty());
  EXPECT_GE(verifier->verifications(), 3u);

  // ...then the boot chain changes out from under the verifier (e.g. a
  // malicious warm reboot into different firmware).
  machine->MeasureIntoPcr(tpm::kPcrFirmware, crypto::Sha256::Hash("evil"),
                          "warm-reboot-implant");
  sim.RunUntil(sim.now() + sim::Duration::Seconds(10));

  EXPECT_EQ(violated, "node-x");
  EXPECT_EQ(verifier->violations(), 1u);
  EXPECT_FALSE(peer.ipsec().HasSa(machine->address()));
  EXPECT_EQ(peer_agent.revocations_received(), 1u);
}

TEST_F(KeylimeFixture, IncrementalImaAttestationShipsOnlyNewEvents) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  // Attach IMA and measure many whitelisted files.
  ima::ImaPolicy policy{.measure_executables = true, .measure_root_reads = false};
  ima::Ima machine_ima(machine->tpm(), policy);
  agent->AttachIma(&machine_ima);

  auto whitelist = WhitelistForMachine();
  for (int i = 0; i < 500; ++i) {
    const std::string path = "/bin/tool-" + std::to_string(i);
    const crypto::Digest content = crypto::Sha256::Hash(path + "-v1");
    whitelist->AllowRuntime(ima::Ima::TemplateDigest(path, content));
    machine_ima.OnFileAccess(ima::FileAccess{.path = path,
                                             .content_digest = content,
                                             .is_executable = true});
  }

  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = whitelist;
  verifier->AddNode("node-x", std::move(config));

  // Observe quote-response sizes on the wire.
  std::vector<size_t> response_sizes;
  fabric.SetSniffer([&](net::VlanId, const net::Message& m) {
    if (m.kind == std::string(kRpcQuote) + ".resp") {
      response_sizes.push_back(m.payload.size());
    }
  });

  // First verification ships all 500 entries...
  EXPECT_TRUE(Verify().passed);
  // ...a few new files later, only the delta travels.
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/bin/new-" + std::to_string(i);
    const crypto::Digest content = crypto::Sha256::Hash(path);
    whitelist->AllowRuntime(ima::Ima::TemplateDigest(path, content));
    machine_ima.OnFileAccess(ima::FileAccess{.path = path,
                                             .content_digest = content,
                                             .is_executable = true});
  }
  EXPECT_TRUE(Verify().passed);
  // And a no-change poll ships nothing new at all.
  EXPECT_TRUE(Verify().passed);

  ASSERT_EQ(response_sizes.size(), 3u);
  EXPECT_GT(response_sizes[0], 500u * 32u);       // full list
  EXPECT_LT(response_sizes[1], response_sizes[0] / 10);  // 3-entry delta
  EXPECT_LT(response_sizes[2], response_sizes[1]);       // empty delta
}

TEST_F(KeylimeFixture, ImaListRegressionIsDetected) {
  // A surprise reboot shrinks the measurement list; continuous
  // attestation must flag it instead of silently resyncing.
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();
  ima::ImaPolicy policy{.measure_executables = true};
  auto machine_ima = std::make_unique<ima::Ima>(machine->tpm(), policy);
  agent->AttachIma(machine_ima.get());

  auto whitelist = WhitelistForMachine();
  const crypto::Digest content = crypto::Sha256::Hash("tool");
  whitelist->AllowRuntime(ima::Ima::TemplateDigest("/bin/tool", content));
  machine_ima->OnFileAccess(ima::FileAccess{.path = "/bin/tool",
                                            .content_digest = content,
                                            .is_executable = true});
  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = whitelist;
  verifier->AddNode("node-x", std::move(config));
  ASSERT_TRUE(Verify().passed);

  // "Reboot": fresh IMA with an empty list (and matching clean PCR 10 is
  // impossible to fake because the TPM also reset).
  machine->PowerCycleReset();
  auto boot2 = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot2());
  sim.Run();
  auto fresh_ima = std::make_unique<ima::Ima>(machine->tpm(), policy);
  agent->AttachIma(fresh_ima.get());

  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.failure.find("regressed"), std::string::npos) << result.failure;
}

TEST_F(KeylimeFixture, StaleQuoteWithOldNonceIsRejected) {
  // A replay attacker answers the verifier with a perfectly signed quote
  // that was generated for an old nonce.  Everything else about the
  // response is honest, so only the freshness check can catch it.
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  net::Endpoint& mitm_ep = fabric.CreateEndpoint("mitm");
  fabric.AttachToVlan(mitm_ep.address(), 50);
  net::RpcNode mitm(sim, mitm_ep);
  mitm.Start();
  const Bytes old_nonce = ToBytes("nonce-captured-last-week");
  mitm.RegisterHandler(
      std::string(kRpcQuote),
      [&](const net::Message&, net::Message* response) -> Task {
        const tpm::Quote quote =
            machine->tpm().MakeQuote(old_nonce, kQuotePcrMask);
        response->payload = crypto::WireWriter()
                                .Blob(quote.Serialize())
                                .Blob(machine->boot_log().Serialize())
                                .U64(0)
                                .Blob(tpm::EventLog().Serialize())
                                .Take();
        co_return;
      });

  Verifier::NodeConfig config;
  config.agent = mitm_ep.address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));

  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure, "stale quote (nonce mismatch)");
  EXPECT_FALSE(IsTransientFailure(result.failure));
}

TEST_F(KeylimeFixture, QuoteSignedByWrongAikIsRejected) {
  // The responder echoes the fresh nonce but signs with a different TPM's
  // AIK than the one certified at registration — the forged-identity case.
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();

  machine::Machine imposter(sim, fabric, "imposter", mc);
  imposter.tpm().CreateAik();

  net::Endpoint& mitm_ep = fabric.CreateEndpoint("mitm");
  fabric.AttachToVlan(mitm_ep.address(), 50);
  net::RpcNode mitm(sim, mitm_ep);
  mitm.Start();
  mitm.RegisterHandler(
      std::string(kRpcQuote),
      [&](const net::Message& request, net::Message* response) -> Task {
        crypto::WireReader reader(request.payload);
        const Bytes nonce = reader.Blob();
        const uint32_t mask = reader.U32();
        const tpm::Quote quote = imposter.tpm().MakeQuote(nonce, mask);
        response->payload = crypto::WireWriter()
                                .Blob(quote.Serialize())
                                .Blob(machine->boot_log().Serialize())
                                .U64(0)
                                .Blob(tpm::EventLog().Serialize())
                                .Take();
        co_return;
      });

  Verifier::NodeConfig config;
  config.agent = mitm_ep.address();
  config.whitelist = WhitelistForMachine();
  verifier->AddNode("node-x", std::move(config));

  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure, "quote signature invalid");
  EXPECT_FALSE(IsTransientFailure(result.failure));
}

TEST_F(KeylimeFixture, ImaRollbackByCompromisedAgentIsRejected) {
  // After the verifier has validated N measurements, a compromised agent
  // advertises a smaller total to hide entries it already shipped.  Unlike
  // the reboot regression above, the quote here is fresh and correctly
  // signed — only the monotonic cursor catches the rollback.
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();
  ima::ImaPolicy policy{.measure_executables = true};
  ima::Ima machine_ima(machine->tpm(), policy);
  agent->AttachIma(&machine_ima);

  auto whitelist = WhitelistForMachine();
  for (int i = 0; i < 2; ++i) {
    const std::string path = "/bin/tool-" + std::to_string(i);
    const crypto::Digest content = crypto::Sha256::Hash(path);
    whitelist->AllowRuntime(ima::Ima::TemplateDigest(path, content));
    machine_ima.OnFileAccess(ima::FileAccess{.path = path,
                                             .content_digest = content,
                                             .is_executable = true});
  }
  Verifier::NodeConfig config;
  config.agent = machine->address();
  config.whitelist = whitelist;
  verifier->AddNode("node-x", std::move(config));
  ASSERT_TRUE(Verify().passed);  // cursor now at 2 validated events

  // The compromise: replace the agent's quote handler with one that rolls
  // the advertised measurement total back to zero.
  machine->rpc().RegisterHandler(
      std::string(kRpcQuote),
      [&](const net::Message& request, net::Message* response) -> Task {
        crypto::WireReader reader(request.payload);
        const Bytes nonce = reader.Blob();
        const uint32_t mask = reader.U32();
        const tpm::Quote quote = machine->tpm().MakeQuote(nonce, mask);
        response->payload = crypto::WireWriter()
                                .Blob(quote.Serialize())
                                .Blob(machine->boot_log().Serialize())
                                .U64(0)
                                .Blob(tpm::EventLog().Serialize())
                                .Take();
        co_return;
      });

  const VerificationResult result = Verify();
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.failure.find("regressed"), std::string::npos) << result.failure;
  EXPECT_FALSE(IsTransientFailure(result.failure));
}

TEST_F(KeylimeFixture, RemoveNodeHaltsPolling) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();
  StartPolling();
  sim.RunUntil(sim.now() + sim::Duration::Seconds(7));
  const uint64_t count = verifier->verifications();
  EXPECT_GE(count, 2u);
  verifier->RemoveNode("node-x");
  sim.RunUntil(sim.now() + sim::Duration::Seconds(20));
  EXPECT_EQ(verifier->verifications(), count);
}

// A loop asleep when its node is removed and added again must end at its
// next wake, even though the new entry is polled under the same name.
TEST_F(KeylimeFixture, ReAddedNodeIsPolledByOneLoop) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();
  const uint64_t one_loop = OneLoopVerificationsPerMinute();
  EXPECT_GE(one_loop, 10u);

  StartPolling();
  sim.RunUntil(sim.now() + sim::Duration::Seconds(1));
  verifier->RemoveNode("node-x");
  StartPolling();
  EXPECT_EQ(VerificationsInNextMinute(), one_loop);
}

TEST_F(KeylimeFixture, StartContinuousTwiceRunsOneLoop) {
  ASSERT_TRUE(Register());
  auto boot = [&]() -> Task { co_await machine->PowerOnSelfTest(); };
  sim.Spawn(boot());
  sim.Run();
  const uint64_t one_loop = OneLoopVerificationsPerMinute();
  EXPECT_GE(one_loop, 10u);

  StartPolling();
  verifier->StartContinuous("node-x", kPollInterval);
  EXPECT_EQ(VerificationsInNextMinute(), one_loop);
}

}  // namespace
}  // namespace bolted::keylime
