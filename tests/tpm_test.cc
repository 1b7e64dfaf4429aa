// TPM emulator tests: PCR semantics, quote signing/verification, quotes
// signed ahead on a worker pool, serialization, credential activation
// binding, and event-log replay.

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/crypto/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/sha256.h"
#include "src/sim/worker_pool.h"
#include "src/tpm/event_log.h"
#include "src/tpm/tpm.h"

namespace bolted::tpm {
namespace {

using crypto::Bytes;
using crypto::Digest;
using crypto::Sha256;
using crypto::ToBytes;

Tpm MakeTpm(std::string_view seed = "tpm-seed") {
  return Tpm(ToBytes(seed), TpmLatencyModel{});
}

TEST(TpmTest, PcrsStartAtZeroAndExtendIsChained) {
  Tpm tpm = MakeTpm();
  EXPECT_TRUE(tpm.PcrIsClean(kPcrFirmware));
  const Digest m1 = Sha256::Hash("firmware-v1");
  const Digest m2 = Sha256::Hash("bootloader-v1");

  tpm.ExtendPcr(kPcrFirmware, m1);
  EXPECT_FALSE(tpm.PcrIsClean(kPcrFirmware));
  const Digest after_one = tpm.ReadPcr(kPcrFirmware);
  EXPECT_EQ(after_one, ExtendDigest(Digest{}, m1));

  tpm.ExtendPcr(kPcrFirmware, m2);
  EXPECT_EQ(tpm.ReadPcr(kPcrFirmware), ExtendDigest(after_one, m2));
}

TEST(TpmTest, ExtendOrderMatters) {
  Tpm a = MakeTpm("a");
  Tpm b = MakeTpm("b");
  const Digest m1 = Sha256::Hash("x");
  const Digest m2 = Sha256::Hash("y");
  a.ExtendPcr(0, m1);
  a.ExtendPcr(0, m2);
  b.ExtendPcr(0, m2);
  b.ExtendPcr(0, m1);
  EXPECT_NE(a.ReadPcr(0), b.ReadPcr(0));
}

TEST(TpmTest, ResetClearsPcrsButKeepsKeys) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  const auto ek = tpm.ek_public();
  const auto aik = tpm.aik_public();
  tpm.ExtendPcr(0, Sha256::Hash("anything"));
  tpm.Reset();
  EXPECT_TRUE(tpm.PcrIsClean(0));
  EXPECT_EQ(tpm.ek_public(), ek);
  EXPECT_EQ(tpm.aik_public(), aik);
}

TEST(TpmTest, EkIsDeterministicPerSeed) {
  EXPECT_EQ(MakeTpm("s1").ek_public(), MakeTpm("s1").ek_public());
  EXPECT_NE(MakeTpm("s1").ek_public(), MakeTpm("s2").ek_public());
}

TEST(TpmTest, QuoteVerifiesAgainstCorrectAik) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("fw"));
  tpm.ExtendPcr(kPcrKernel, Sha256::Hash("kernel"));

  const Bytes nonce = ToBytes("verifier-nonce-123");
  const uint32_t mask = (1u << kPcrFirmware) | (1u << kPcrKernel);
  const Quote quote = tpm.MakeQuote(nonce, mask);

  EXPECT_TRUE(Tpm::VerifyQuote(quote, tpm.aik_public()));
  EXPECT_EQ(quote.pcr_values.size(), 2u);
  EXPECT_EQ(quote.pcr_values[0], tpm.ReadPcr(kPcrFirmware));
  EXPECT_EQ(quote.pcr_values[1], tpm.ReadPcr(kPcrKernel));
}

TEST(TpmTest, QuoteRejectsWrongAikOrTamperedContent) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  Tpm other = MakeTpm("other");
  other.CreateAik();

  const Bytes nonce = ToBytes("nonce");
  Quote quote = tpm.MakeQuote(nonce, 1u << 0);
  EXPECT_FALSE(Tpm::VerifyQuote(quote, other.aik_public()));

  // Tampered PCR value.
  Quote tampered = tpm.MakeQuote(nonce, 1u << 0);
  tampered.pcr_values[0][0] ^= 1;
  EXPECT_FALSE(Tpm::VerifyQuote(tampered, tpm.aik_public()));

  // Tampered nonce (replay with a different nonce).
  Quote replayed = tpm.MakeQuote(nonce, 1u << 0);
  replayed.nonce = ToBytes("other-nonce");
  EXPECT_FALSE(Tpm::VerifyQuote(replayed, tpm.aik_public()));

  // Mask/value-count mismatch.
  Quote mismatched = tpm.MakeQuote(nonce, 1u << 0);
  mismatched.pcr_mask = 0x3;
  EXPECT_FALSE(Tpm::VerifyQuote(mismatched, tpm.aik_public()));
}

TEST(TpmTest, QuoteSerializationRoundTrip) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  tpm.ExtendPcr(0, Sha256::Hash("a"));
  tpm.ExtendPcr(10, Sha256::Hash("b"));
  const Quote quote = tpm.MakeQuote(ToBytes("n"), (1u << 0) | (1u << 10));

  const Bytes wire = quote.Serialize();
  const auto parsed = Quote::Deserialize(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->nonce, quote.nonce);
  EXPECT_EQ(parsed->pcr_mask, quote.pcr_mask);
  EXPECT_EQ(parsed->pcr_values, quote.pcr_values);
  EXPECT_TRUE(Tpm::VerifyQuote(*parsed, tpm.aik_public()));
}

TEST(TpmTest, QuoteDeserializeRejectsGarbage) {
  EXPECT_FALSE(Quote::Deserialize(Bytes{}).has_value());
  EXPECT_FALSE(Quote::Deserialize(Bytes(3, 0)).has_value());
  EXPECT_FALSE(Quote::Deserialize(Bytes(200, 0xff)).has_value());

  // Truncated valid quote.
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  Bytes wire = tpm.MakeQuote(ToBytes("n"), 1).Serialize();
  wire.pop_back();
  EXPECT_FALSE(Quote::Deserialize(wire).has_value());
}

// A TPM in a booted state: AIK plus measurements in every quoted PCR.
Tpm BootedTpm() {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("fw"));
  tpm.ExtendPcr(kPcrBootloader, Sha256::Hash("ipxe"));
  tpm.ExtendPcr(kPcrKernel, Sha256::Hash("kernel"));
  tpm.ExtendPcr(kPcrIma, Sha256::Hash("ima"));
  return tpm;
}

constexpr uint32_t kMask = (1u << kPcrFirmware) | (1u << kPcrBootloader) |
                           (1u << kPcrKernel) | (1u << kPcrIma);

// No pool (threads 0) and pools of 1, 2 and 4 threads.
std::unique_ptr<sim::WorkerPool> MakePool(uint32_t threads) {
  return threads == 0 ? nullptr : std::make_unique<sim::WorkerPool>(threads);
}

TEST(TpmTest, StartFinishQuoteEqualsMakeQuoteWithAnyPool) {
  for (const uint32_t threads : {0u, 1u, 2u, 4u}) {
    const std::unique_ptr<sim::WorkerPool> pool = MakePool(threads);
    Tpm tpm = BootedTpm();
    for (int round = 0; round < 8; ++round) {
      const Bytes nonce = ToBytes("nonce-" + std::to_string(round));
      Tpm::PendingQuote pending = tpm.StartQuote(nonce, kMask, pool.get());
      const Quote quote = tpm.FinishQuote(std::move(pending));
      EXPECT_EQ(quote.Serialize(), tpm.MakeQuote(nonce, kMask).Serialize())
          << "threads=" << threads << " round=" << round;
      EXPECT_TRUE(Tpm::VerifyQuote(quote, tpm.aik_public()));
    }
  }
}

TEST(TpmTest, FinishQuoteResignsWhenAQuotedPcrMoves) {
  for (const uint32_t threads : {0u, 1u, 2u, 4u}) {
    const std::unique_ptr<sim::WorkerPool> pool = MakePool(threads);
    Tpm tpm = BootedTpm();
    const Bytes nonce = ToBytes("nonce");
    Tpm::PendingQuote pending = tpm.StartQuote(nonce, kMask, pool.get());
    const Quote before = tpm.MakeQuote(nonce, kMask);
    tpm.ExtendPcr(kPcrIma, Sha256::Hash("late-measurement"));
    const Quote quote = tpm.FinishQuote(std::move(pending));
    EXPECT_EQ(quote.Serialize(), tpm.MakeQuote(nonce, kMask).Serialize())
        << "threads=" << threads;
    EXPECT_NE(quote.Serialize(), before.Serialize());
    EXPECT_EQ(quote.pcr_values.back(), tpm.ReadPcr(kPcrIma));
    EXPECT_TRUE(Tpm::VerifyQuote(quote, tpm.aik_public()));

    // A PCR outside the selection does not touch the quote.
    pending = tpm.StartQuote(nonce, kMask, pool.get());
    tpm.ExtendPcr(kPcrFirmwareConfig, Sha256::Hash("bios-setting"));
    EXPECT_EQ(tpm.FinishQuote(std::move(pending)).Serialize(),
              tpm.MakeQuote(nonce, kMask).Serialize());
  }
}

TEST(TpmTest, FinishQuoteResignsWhenTheAikIsRegenerated) {
  for (const uint32_t threads : {0u, 1u, 2u, 4u}) {
    const std::unique_ptr<sim::WorkerPool> pool = MakePool(threads);
    Tpm tpm = BootedTpm();
    const crypto::EcPoint old_aik = tpm.aik_public();
    const Bytes nonce = ToBytes("nonce");
    Tpm::PendingQuote pending = tpm.StartQuote(nonce, kMask, pool.get());
    tpm.CreateAik();
    const Quote quote = tpm.FinishQuote(std::move(pending));
    EXPECT_EQ(quote.Serialize(), tpm.MakeQuote(nonce, kMask).Serialize())
        << "threads=" << threads;
    EXPECT_TRUE(Tpm::VerifyQuote(quote, tpm.aik_public()));
    EXPECT_FALSE(Tpm::VerifyQuote(quote, old_aik));
  }
}

TEST(TpmTest, DroppedPendingQuoteLeavesNothingBehind) {
  // The faulted path: the agent starts the quote, the command fails, and
  // the pending quote is destroyed while its signature may still be queued
  // or running.  Run under ASan, this is the use-after-free check.
  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto pool = std::make_unique<sim::WorkerPool>(threads);
    auto tpm = std::make_unique<Tpm>(BootedTpm());
    for (int i = 0; i < 16; ++i) {
      std::optional<Tpm::PendingQuote> pending =
          tpm->StartQuote(ToBytes("dropped"), kMask, pool.get());
      pending.reset();
    }
    tpm.reset();  // the TPM goes too, as when its machine is destroyed
    pool.reset();
  }
  // A ticket outlives its pool: a quote started on a pool that is then
  // destroyed still finishes, on the caller's thread if no worker took it.
  Tpm tpm = BootedTpm();
  auto pool = std::make_unique<sim::WorkerPool>(4);
  Tpm::PendingQuote pending = tpm.StartQuote(ToBytes("orphan"), kMask, pool.get());
  pool.reset();
  EXPECT_EQ(tpm.FinishQuote(std::move(pending)).Serialize(),
            tpm.MakeQuote(ToBytes("orphan"), kMask).Serialize());
}

TEST(TpmTest, CredentialActivationSucceedsForMatchingTpm) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  crypto::Drbg drbg(uint64_t{1});
  const Bytes secret = ToBytes("registrar-challenge-secret");
  const Bytes blob = MakeCredential(tpm.ek_public(), tpm.aik_public(), secret, drbg);

  const auto recovered = tpm.ActivateCredential(blob);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, secret);
}

TEST(TpmTest, CredentialActivationFailsForWrongEkOrAik) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  Tpm impostor = MakeTpm("impostor");
  impostor.CreateAik();
  crypto::Drbg drbg(uint64_t{2});
  const Bytes secret = ToBytes("secret");

  // Blob bound to tpm's EK cannot be activated by another TPM.
  const Bytes blob = MakeCredential(tpm.ek_public(), tpm.aik_public(), secret, drbg);
  EXPECT_FALSE(impostor.ActivateCredential(blob).has_value());

  // Blob bound to a different AIK cannot be activated even by the right
  // TPM (the AIK-EK binding check).
  const Bytes cross_blob =
      MakeCredential(tpm.ek_public(), impostor.aik_public(), secret, drbg);
  EXPECT_FALSE(tpm.ActivateCredential(cross_blob).has_value());

  // Malformed blobs.
  EXPECT_FALSE(tpm.ActivateCredential(Bytes{}).has_value());
  EXPECT_FALSE(tpm.ActivateCredential(Bytes(80, 0)).has_value());
}

TEST(TpmTest, RegeneratingAikInvalidatesOldCredential) {
  Tpm tpm = MakeTpm();
  tpm.CreateAik();
  crypto::Drbg drbg(uint64_t{3});
  const Bytes blob =
      MakeCredential(tpm.ek_public(), tpm.aik_public(), ToBytes("s"), drbg);
  tpm.CreateAik();  // new AIK
  EXPECT_FALSE(tpm.ActivateCredential(blob).has_value());
}

TEST(EventLogTest, ReplayMatchesTpmState) {
  Tpm tpm = MakeTpm();
  EventLog log;
  const struct {
    int pcr;
    std::string_view what;
  } stages[] = {{kPcrFirmware, "uefi-pei"},
                {kPcrFirmware, "linuxboot"},
                {kPcrBootloader, "ipxe"},
                {kPcrKernel, "tenant-kernel"}};
  for (const auto& stage : stages) {
    const Digest m = Sha256::Hash(stage.what);
    log.Add(stage.pcr, m, std::string(stage.what));
    tpm.ExtendPcr(stage.pcr, m);
  }

  const auto replayed = log.ReplayPcrs();
  for (int i = 0; i < kNumPcrs; ++i) {
    EXPECT_EQ(replayed[static_cast<size_t>(i)], tpm.ReadPcr(i)) << "pcr " << i;
  }
}

TEST(EventLogTest, SerializationRoundTrip) {
  EventLog log;
  log.Add(0, Sha256::Hash("a"), "stage a");
  log.Add(10, Sha256::Hash("b"), "");
  log.Add(4, Sha256::Hash("c"), "stage c with spaces");

  const auto parsed = EventLog::Deserialize(log.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, log);
}

TEST(EventLogTest, DeserializeRejectsMalformed) {
  EXPECT_FALSE(EventLog::Deserialize(Bytes(2, 0)).has_value());

  EventLog log;
  log.Add(0, Sha256::Hash("a"), "x");
  Bytes wire = log.Serialize();
  wire.pop_back();  // truncate
  EXPECT_FALSE(EventLog::Deserialize(wire).has_value());
  wire = log.Serialize();
  wire.push_back(0);  // trailing junk
  EXPECT_FALSE(EventLog::Deserialize(wire).has_value());
}

TEST(EventLogTest, EmptyLogReplaysToZeroPcrs) {
  const EventLog log;
  for (const auto& pcr : log.ReplayPcrs()) {
    EXPECT_EQ(pcr, Digest{});
  }
  const auto parsed = EventLog::Deserialize(log.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 0u);
}

TEST(TpmSealTest, UnsealRequiresSamePcrState) {
  Tpm tpm = MakeTpm();
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("good-firmware"));
  crypto::Drbg drbg(uint64_t{4});
  const Bytes secret = ToBytes("disk master key");
  const Tpm::SealedBlob blob = tpm.Seal(secret, 1u << kPcrFirmware, drbg);

  // Same state: unseals.
  const auto unsealed = tpm.Unseal(blob);
  ASSERT_TRUE(unsealed.has_value());
  EXPECT_EQ(*unsealed, secret);

  // Extending the bound PCR (e.g. loading something new) breaks it.
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("anything else"));
  EXPECT_FALSE(tpm.Unseal(blob).has_value());
}

TEST(TpmSealTest, UnboundPcrsDoNotAffectUnseal) {
  Tpm tpm = MakeTpm();
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("fw"));
  crypto::Drbg drbg(uint64_t{5});
  const Tpm::SealedBlob blob = tpm.Seal(ToBytes("s"), 1u << kPcrFirmware, drbg);
  // PCR 10 is not in the policy; extending it must not matter.
  tpm.ExtendPcr(kPcrIma, Sha256::Hash("runtime stuff"));
  EXPECT_TRUE(tpm.Unseal(blob).has_value());
}

TEST(TpmSealTest, RebootIntoDifferentFirmwareCannotUnseal) {
  // The whole point: a disk key sealed in a known-good boot state is
  // unrecoverable after booting modified firmware.
  Tpm tpm = MakeTpm();
  const crypto::Digest good = Sha256::Hash("linuxboot-good");
  tpm.ExtendPcr(kPcrFirmware, good);
  crypto::Drbg drbg(uint64_t{6});
  const Tpm::SealedBlob blob = tpm.Seal(ToBytes("key"), 1u << kPcrFirmware, drbg);

  tpm.Reset();  // power cycle
  tpm.ExtendPcr(kPcrFirmware, Sha256::Hash("linuxboot-evil"));
  EXPECT_FALSE(tpm.Unseal(blob).has_value());

  // Rebooting into the good firmware restores access.
  tpm.Reset();
  tpm.ExtendPcr(kPcrFirmware, good);
  EXPECT_TRUE(tpm.Unseal(blob).has_value());
}

TEST(TpmSealTest, SealedBlobIsTpmBound) {
  Tpm a = MakeTpm("a");
  Tpm b = MakeTpm("b");  // identical (empty) PCR state, different SRK
  crypto::Drbg drbg(uint64_t{7});
  const Tpm::SealedBlob blob = a.Seal(ToBytes("s"), 0x1, drbg);
  EXPECT_TRUE(a.Unseal(blob).has_value());
  EXPECT_FALSE(b.Unseal(blob).has_value());

  Tpm::SealedBlob truncated = blob;
  truncated.ciphertext.resize(4);
  EXPECT_FALSE(a.Unseal(truncated).has_value());
}

}  // namespace
}  // namespace bolted::tpm
