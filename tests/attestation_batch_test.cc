// Batched attestation tests: P256::VerifyBatch against the sequential
// oracle (equivalence, exact blame under poisoning, adversarial R hints,
// Wycheproof-style rejection vectors), Tpm::VerifyQuoteBatch, and the
// verifier's fleet pipeline (verdict + trace-digest invariance across
// batch sizes and worker counts, stale-AIK negatives).
//
// Selected with `ctest -L attestation`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"

namespace bolted {
namespace {

using crypto::Digest;
using crypto::EcdsaSignature;
using crypto::EcPoint;
using crypto::P256;
using crypto::U256;
using sim::Task;

// One signer with its prepared verification key and a signed message.
struct Signed {
  P256::PreparedKey key;
  EcPoint public_key;
  Digest hash;
  EcdsaSignature signature;
  EcPoint r_hint;
};

std::vector<Signed> MakeSigners(size_t n, uint64_t salt = 0) {
  const P256& curve = P256::Instance();
  std::vector<Signed> out(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string seed =
        "batch-signer-" + std::to_string(salt) + "-" + std::to_string(i);
    const U256 priv = curve.PrivateKeyFromSeed(crypto::ToBytes(seed));
    out[i].public_key = curve.PublicKey(priv);
    out[i].key = *curve.Prepare(out[i].public_key);
    out[i].hash = crypto::Sha256::Hash("message-" + std::to_string(i));
    out[i].signature = curve.Sign(priv, out[i].hash, &out[i].r_hint);
  }
  return out;
}

std::vector<P256::BatchEntry> ToEntries(const std::vector<Signed>& signers,
                                        bool with_hints) {
  std::vector<P256::BatchEntry> entries(signers.size());
  for (size_t i = 0; i < signers.size(); ++i) {
    entries[i].key = &signers[i].key;
    entries[i].message_hash = signers[i].hash;
    entries[i].signature = signers[i].signature;
    entries[i].r_hint = with_hints ? &signers[i].r_hint : nullptr;
  }
  return entries;
}

// The oracle: ok[i] from VerifyBatch must equal sequential Verify for
// every entry, whatever the batch outcome.
void ExpectMatchesSequential(const std::vector<P256::BatchEntry>& entries,
                             const std::vector<bool>& ok) {
  const P256& curve = P256::Instance();
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool expected =
        entries[i].key != nullptr &&
        curve.Verify(*entries[i].key, entries[i].message_hash,
                     entries[i].signature);
    EXPECT_EQ(ok[i], expected) << "entry " << i;
  }
}

std::vector<bool> RunBatch(const std::vector<P256::BatchEntry>& entries,
                           bool* all, P256::BatchStats* stats = nullptr) {
  std::vector<uint8_t> ok(entries.size() ? entries.size() : 1, 0xcc);
  bool result = P256::Instance().VerifyBatch(
      entries, reinterpret_cast<bool*>(ok.data()), stats);
  if (all != nullptr) {
    *all = result;
  }
  return std::vector<bool>(ok.begin(), ok.begin() + entries.size());
}

TEST(VerifyBatchTest, AllValidMatchesSequentialAcrossSizes) {
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 33u, 64u}) {
    auto signers = MakeSigners(n, n);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all) << "n=" << n;
    EXPECT_EQ(stats.bisections, 0u) << "n=" << n;
    EXPECT_EQ(stats.rejected_hints, 0u) << "n=" << n;
    EXPECT_EQ(stats.sqrt_recoveries, 0u) << "n=" << n;
    ExpectMatchesSequential(entries, ok);
  }
}

TEST(VerifyBatchTest, NoHintFallsBackToSquareRootRecovery) {
  // The plain 2-arg Sign does not normalize the nonce parity, so about
  // half of these signatures have an odd-y nonce point.  The even-y
  // square-root guess is then wrong, the combination fails, and bisection
  // must still converge on all-true verdicts (the fail-closed guarantee;
  // quotes avoid this cost by signing with the even-y convention).
  const P256& curve = P256::Instance();
  auto signers = MakeSigners(16);
  for (size_t i = 0; i < signers.size(); ++i) {
    const U256 priv = curve.PrivateKeyFromSeed(
        crypto::ToBytes("plain-signer-" + std::to_string(i)));
    signers[i].public_key = curve.PublicKey(priv);
    signers[i].key = *curve.Prepare(signers[i].public_key);
    signers[i].signature = curve.Sign(priv, signers[i].hash);
  }
  auto entries = ToEntries(signers, /*with_hints=*/false);
  P256::BatchStats stats;
  bool all = false;
  auto ok = RunBatch(entries, &all, &stats);
  EXPECT_TRUE(all);
  EXPECT_EQ(stats.sqrt_recoveries, signers.size());
  ExpectMatchesSequential(entries, ok);
}

TEST(VerifyBatchTest, PoisonedBatchBisectsToExactBlame) {
  for (size_t bad_at : {0u, 7u, 15u, 31u}) {
    auto signers = MakeSigners(32);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    // Flip the message so the signature no longer matches; the hint still
    // validates (it is a real curve point with the right x), so the bad
    // entry participates in the combination and must be found by bisection.
    entries[bad_at].message_hash[5] ^= 0x40;
    P256::BatchStats stats;
    bool all = true;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_FALSE(all);
    EXPECT_GT(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(ok[i], i != bad_at) << "entry " << i;
    }
  }
}

TEST(VerifyBatchTest, AllBadAndDuplicateEntries) {
  auto signers = MakeSigners(9);
  auto entries = ToEntries(signers, /*with_hints=*/true);
  for (auto& e : entries) {
    e.message_hash[0] ^= 1;
  }
  bool all = true;
  auto ok = RunBatch(entries, &all);
  EXPECT_FALSE(all);
  ExpectMatchesSequential(entries, ok);

  // Same key signing several messages, plus a byte-identical duplicate
  // entry: both must be handled (the transcript separates them by index).
  auto base = MakeSigners(1);
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(crypto::ToBytes("batch-signer-0-0"));
  std::vector<Signed> dup(4, base[0]);
  for (size_t i = 1; i < 3; ++i) {
    dup[i].hash = crypto::Sha256::Hash("dup-message-" + std::to_string(i));
    dup[i].signature = curve.Sign(priv, dup[i].hash, &dup[i].r_hint);
  }
  dup[3] = dup[2];  // exact duplicate
  auto dup_entries = ToEntries(dup, /*with_hints=*/true);
  all = false;
  ok = RunBatch(dup_entries, &all);
  EXPECT_TRUE(all);
  ExpectMatchesSequential(dup_entries, ok);
}

TEST(VerifyBatchTest, RejectionVectors) {
  // Wycheproof-style malformed signatures, each embedded in an otherwise
  // valid batch: the batch must reject exactly the malformed entry.
  const U256 n = U256::FromHexString(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  struct Case {
    const char* name;
    void (*mutate)(P256::BatchEntry&, const U256&);
  };
  const Case cases[] = {
      {"zero r", [](P256::BatchEntry& e, const U256&) { e.signature.r = U256{}; }},
      {"zero s", [](P256::BatchEntry& e, const U256&) { e.signature.s = U256{}; }},
      {"r = n", [](P256::BatchEntry& e, const U256& order) { e.signature.r = order; }},
      {"s = n", [](P256::BatchEntry& e, const U256& order) { e.signature.s = order; }},
      {"swapped r/s",
       [](P256::BatchEntry& e, const U256&) {
         std::swap(e.signature.r, e.signature.s);
       }},
      {"s + 1",
       [](P256::BatchEntry& e, const U256&) {
         const U256 one = U256::FromHexString("01");
         crypto::AddCarry(e.signature.s, one, e.signature.s);
       }},
      {"null key", [](P256::BatchEntry& e, const U256&) { e.key = nullptr; }},
  };
  for (const Case& c : cases) {
    auto signers = MakeSigners(8);
    auto entries = ToEntries(signers, /*with_hints=*/false);
    c.mutate(entries[3], n);
    bool all = true;
    auto ok = RunBatch(entries, &all);
    EXPECT_FALSE(all) << c.name;
    EXPECT_FALSE(ok[3]) << c.name;
    ExpectMatchesSequential(entries, ok);
  }
  // Signature under the wrong key: valid shape, fails the equation.
  auto signers = MakeSigners(8);
  auto entries = ToEntries(signers, /*with_hints=*/false);
  entries[2].key = &signers[5].key;
  bool all = true;
  auto ok = RunBatch(entries, &all);
  EXPECT_FALSE(all);
  EXPECT_FALSE(ok[2]);
  ExpectMatchesSequential(entries, ok);
}

TEST(VerifyBatchTest, AdversarialHintsNeverChangeVerdicts) {
  const U256 p = U256::FromHexString(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  // Negated-R hint: on the curve with the right x, but the wrong parity.
  // It passes hint validation, poisons the combination, and bisection must
  // still land on all-true verdicts.
  {
    auto signers = MakeSigners(8);
    crypto::SubBorrow(p, signers[4].r_hint.y, signers[4].r_hint.y);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all);
    EXPECT_GT(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
  }
  // Off-curve hint: rejected up front, recovered via the square root, no
  // bisection needed.
  {
    auto signers = MakeSigners(8);
    const U256 one = U256::FromHexString("01");
    crypto::AddCarry(signers[4].r_hint.y, one, signers[4].r_hint.y);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all);
    EXPECT_EQ(stats.rejected_hints, 1u);
    EXPECT_EQ(stats.sqrt_recoveries, 1u);
    EXPECT_EQ(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
  }
}

TEST(QuoteBatchTest, MatchesVerifyQuoteIncludingCorruption) {
  std::vector<std::unique_ptr<tpm::Tpm>> tpms;
  std::vector<tpm::Quote> quotes;
  std::vector<P256::PreparedKey> keys;
  const tpm::TpmLatencyModel latency;
  for (int i = 0; i < 12; ++i) {
    tpms.push_back(std::make_unique<tpm::Tpm>(
        crypto::ToBytes("ek-seed-" + std::to_string(i)), latency));
    tpms.back()->CreateAik();
    tpms.back()->ExtendPcr(0, crypto::Sha256::Hash("fw-" + std::to_string(i)));
    quotes.push_back(
        tpms.back()->MakeQuote(crypto::ToBytes("nonce-" + std::to_string(i)), 1));
    keys.push_back(*P256::Instance().Prepare(tpms.back()->aik_public()));
  }
  quotes[3].nonce.back() ^= 1;          // signed content changed
  quotes[9].signature.s.limb[0] ^= 1;  // signature corrupted

  std::vector<tpm::Tpm::QuoteBatchEntry> entries(quotes.size());
  for (size_t i = 0; i < quotes.size(); ++i) {
    entries[i] = {&quotes[i], &keys[i]};
  }
  std::vector<uint8_t> ok(quotes.size(), 0xcc);
  crypto::P256::BatchStats stats;
  EXPECT_FALSE(tpm::Tpm::VerifyQuoteBatch(
      entries, reinterpret_cast<bool*>(ok.data()), &stats));
  for (size_t i = 0; i < quotes.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(ok[i]),
              tpm::Tpm::VerifyQuote(quotes[i], keys[i]))
        << "quote " << i;
    EXPECT_EQ(static_cast<bool>(ok[i]), i != 3 && i != 9) << "quote " << i;
  }
}

// --- Fleet pipeline -------------------------------------------------------

// A small fleet over the simulated fabric.  One machine runs compromised
// firmware, one node is registered with an unreachable agent address; the
// rest are healthy.
struct FleetFixture {
  static constexpr int kNodes = 24;
  static constexpr int kCompromised = 17;
  static constexpr int kUnreachable = 21;

  sim::Simulation sim;
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  net::Endpoint& registrar_ep{fabric.CreateEndpoint("registrar")};
  net::Endpoint& verifier_ep{fabric.CreateEndpoint("verifier")};
  keylime::Registrar registrar{sim, registrar_ep, 1};
  keylime::Verifier verifier{sim, verifier_ep, registrar_ep.address(), 2};
  machine::MachineConfig mc;
  std::vector<std::unique_ptr<machine::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::string> names;

  explicit FleetFixture(uint64_t seed = 9001) : sim{seed} {
    mc.flash_firmware = firmware::BuildLinuxBoot("src");
    auto whitelist = std::make_shared<keylime::Whitelist>();
    whitelist->AllowBoot(mc.flash_firmware.digest);
    fabric.AttachToVlan(registrar_ep.address(), 50);
    fabric.AttachToVlan(verifier_ep.address(), 50);
    for (int i = 0; i < kNodes; ++i) {
      names.push_back("fleet-" + std::to_string(i));
      machines.push_back(
          std::make_unique<machine::Machine>(sim, fabric, names.back(), mc));
      agents.push_back(std::make_unique<keylime::Agent>(*machines.back(), 100 + i));
      fabric.AttachToVlan(machines.back()->address(), 50);
    }
    machines[kCompromised]->ReflashFirmware(
        firmware::CompromisedVariant(mc.flash_firmware, "implant"));
    auto setup = [&](int i) -> Task {
      bool ok = false;
      co_await agents[static_cast<size_t>(i)]->RegisterWithRegistrar(
          registrar_ep.address(), names[static_cast<size_t>(i)], &ok);
      co_await machines[static_cast<size_t>(i)]->PowerOnSelfTest();
    };
    for (int i = 0; i < kNodes; ++i) {
      sim.Spawn(setup(i));
    }
    sim.Run();
    for (int i = 0; i < kNodes; ++i) {
      keylime::Verifier::NodeConfig config;
      config.agent = i == kUnreachable ? net::Address{59999}
                                       : machines[static_cast<size_t>(i)]->address();
      config.whitelist = whitelist;
      verifier.AddNode(names[static_cast<size_t>(i)], std::move(config));
    }
    // Short timeout, single attempt: the unreachable node fails fast.
    verifier.SetCallOptions({.timeout = sim::Duration::Seconds(2),
                             .max_attempts = 1});
  }

  std::vector<keylime::VerificationResult> Poll() {
    std::vector<keylime::VerificationResult> results(kNodes);
    auto round = [&]() -> Task {
      co_await verifier.VerifyFleet(names, results.data());
    };
    sim.Spawn(round());
    sim.Run();
    return results;
  }
};

void ExpectFleetVerdicts(const std::vector<keylime::VerificationResult>& results) {
  for (int i = 0; i < FleetFixture::kNodes; ++i) {
    if (i == FleetFixture::kCompromised) {
      EXPECT_FALSE(results[static_cast<size_t>(i)].passed);
      EXPECT_NE(results[static_cast<size_t>(i)].failure.find(
                    "unwhitelisted boot measurement"),
                std::string::npos)
          << results[static_cast<size_t>(i)].failure;
    } else if (i == FleetFixture::kUnreachable) {
      EXPECT_FALSE(results[static_cast<size_t>(i)].passed);
      EXPECT_EQ(results[static_cast<size_t>(i)].failure, "agent unreachable");
    } else {
      EXPECT_TRUE(results[static_cast<size_t>(i)].passed)
          << i << ": " << results[static_cast<size_t>(i)].failure;
    }
  }
}

TEST(FleetTest, VerdictsAndDigestsInvariantAcrossBatchAndWorkers) {
  const keylime::Verifier::FleetOptions configs[] = {
      {.workers = 1, .batch_size = 1},
      {.workers = 1, .batch_size = 7},
      {.workers = 1, .batch_size = 64},
      {.workers = 2, .batch_size = 16},
      {.workers = 4, .batch_size = 5},
      {.workers = 4, .batch_size = 64},
      {.workers = 8, .batch_size = 64},
  };
  uint64_t expected_digest = 0;
  uint64_t expected_frames = 0;
  crypto::P256::BatchStats expected_stats;
  std::vector<std::string> expected_failures;
  for (size_t c = 0; c < std::size(configs); ++c) {
    FleetFixture fleet;
    fleet.verifier.SetFleetOptions(configs[c]);
    auto first = fleet.Poll();
    auto second = fleet.Poll();  // steady state: caches warm
    ExpectFleetVerdicts(first);
    ExpectFleetVerdicts(second);
    EXPECT_GT(fleet.verifier.batched_verifications(), 0u);
    EXPECT_GT(fleet.verifier.boot_log_cache_hits(), 0u);
    EXPECT_EQ(fleet.verifier.batch_stats().bisections, 0u);
    std::vector<std::string> failures;
    for (const auto& r : second) {
      failures.push_back(r.failure);
    }
    const crypto::P256::BatchStats& stats = fleet.verifier.batch_stats();
    if (c == 0) {
      expected_digest = fleet.sim.trace_digest();
      expected_frames = fleet.fabric.frame_digest();
      expected_stats = stats;
      expected_failures = failures;
    } else {
      // The whole point of host-side batching and signing: the simulated
      // event stream (and so the chaos trace digest) cannot depend on the
      // batch size or worker count.  The trace digest never sees quote
      // bytes; the frame digest hashes them.
      EXPECT_EQ(fleet.sim.trace_digest(), expected_digest)
          << "batch=" << configs[c].batch_size
          << " workers=" << configs[c].workers;
      EXPECT_EQ(fleet.fabric.frame_digest(), expected_frames)
          << "batch=" << configs[c].batch_size
          << " workers=" << configs[c].workers;
      EXPECT_EQ(stats.bisections, expected_stats.bisections);
      EXPECT_EQ(stats.sqrt_recoveries, expected_stats.sqrt_recoveries);
      EXPECT_EQ(stats.rejected_hints, expected_stats.rejected_hints);
      EXPECT_EQ(failures, expected_failures);
    }
  }
}

TEST(FleetTest, FleetMatchesPerNodeVerdicts) {
  FleetFixture fleet;
  auto fleet_results = fleet.Poll();

  FleetFixture solo;
  std::vector<keylime::VerificationResult> solo_results(FleetFixture::kNodes);
  auto rounds = [&]() -> Task {
    for (int i = 0; i < FleetFixture::kNodes; ++i) {
      co_await solo.verifier.VerifyNode(solo.names[static_cast<size_t>(i)],
                                        &solo_results[static_cast<size_t>(i)]);
    }
  };
  solo.sim.Spawn(rounds());
  solo.sim.Run();

  for (int i = 0; i < FleetFixture::kNodes; ++i) {
    EXPECT_EQ(fleet_results[static_cast<size_t>(i)].passed,
              solo_results[static_cast<size_t>(i)].passed)
        << i;
    EXPECT_EQ(fleet_results[static_cast<size_t>(i)].failure,
              solo_results[static_cast<size_t>(i)].failure)
        << i;
  }
}

TEST(FleetTest, StaleAikCannotValidateReRegisteredNode) {
  FleetFixture fleet;
  auto first = fleet.Poll();
  EXPECT_TRUE(first[0].passed) << first[0].failure;

  // Capture the prepared AIK the verifier currently trusts for node 0.
  const auto stale_keys = fleet.registrar.Lookup(fleet.names[0]);
  ASSERT_TRUE(stale_keys.has_value());
  const auto stale_prepared = P256::Instance().Prepare(stale_keys->aik);
  ASSERT_TRUE(stale_prepared.has_value());

  // The node is re-provisioned: new AIK, fresh credential activation.
  fleet.machines[0]->tpm().CreateAik();
  bool ok = false;
  auto rereg = [&]() -> Task {
    co_await fleet.agents[0]->RegisterWithRegistrar(
        fleet.registrar_ep.address(), fleet.names[0], &ok);
  };
  fleet.sim.Spawn(rereg());
  fleet.sim.Run();
  ASSERT_TRUE(ok);

  // Nobody tells the verifier: its key cache keys on the registrar's wire
  // bytes, so the new AIK misses on its own and is re-prepared.
  const uint64_t misses_before = fleet.verifier.aik_cache_misses();
  auto second = fleet.Poll();
  EXPECT_TRUE(second[0].passed) << second[0].failure;
  EXPECT_GT(fleet.verifier.aik_cache_misses(), misses_before);

  // Negative: a quote from the NEW AIK must not validate against the
  // STALE prepared key — neither alone nor through the batch path.
  const tpm::Quote quote =
      fleet.machines[0]->tpm().MakeQuote(crypto::ToBytes("fresh-nonce"), 1);
  EXPECT_FALSE(tpm::Tpm::VerifyQuote(quote, *stale_prepared));
  tpm::Tpm::QuoteBatchEntry entry{&quote, &*stale_prepared};
  bool batch_ok = true;
  EXPECT_FALSE(tpm::Tpm::VerifyQuoteBatch({&entry, 1}, &batch_ok));
  EXPECT_FALSE(batch_ok);
}

}  // namespace
}  // namespace bolted
