// Software TPM emulator.
//
// Mirrors the slice of TPM functionality Bolted depends on (§2, §5 of the
// paper): SHA-256 PCR banks with extend/read/reset, an Endorsement Key
// burned in at manufacture, Attestation Identity Keys, signed quotes over
// selected PCRs, and the make/activate-credential exchange the Keylime
// registrar uses to prove an AIK lives in the same TPM as an EK.
//
// The paper's M620 cluster also ran a software TPM with injected R630
// latencies; TpmLatencyModel plays that role here.  All keys are P-256
// (substitution documented in DESIGN.md).

#ifndef SRC_TPM_TPM_H_
#define SRC_TPM_TPM_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/aes_gcm.h"
#include "src/crypto/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"
#include "src/sim/time.h"
#include "src/sim/worker_pool.h"

namespace bolted::tpm {

inline constexpr int kNumPcrs = 24;

// PCR allocation used by the Bolted boot chain (matches the Linux/TCG
// conventions the paper relies on).
inline constexpr int kPcrFirmware = 0;       // platform firmware (SRTM)
inline constexpr int kPcrFirmwareConfig = 1; // firmware settings
inline constexpr int kPcrBootloader = 4;     // iPXE + downloaded runtime
inline constexpr int kPcrKernel = 8;         // kexec'd kernel/initrd
inline constexpr int kPcrIma = 10;           // IMA runtime measurement list

// Command latencies, defaulting to values in the ballpark of the paper's
// Dell R630 hardware TPM measurements.
struct TpmLatencyModel {
  sim::Duration extend = sim::Duration::Milliseconds(12);
  sim::Duration read = sim::Duration::Milliseconds(5);
  sim::Duration quote = sim::Duration::Milliseconds(1500);
  sim::Duration activate_credential = sim::Duration::Milliseconds(500);
  sim::Duration create_aik = sim::Duration::Seconds(20);
};

// Per-command fault verdict (see Tpm::SetFaultHook): hardware TPMs fail
// transiently under load and show heavy-tailed command latency; both are
// injected here rather than modelled statistically, so chaos runs stay
// seed-deterministic.
struct TpmFault {
  bool fail = false;               // command returns an error
  sim::Duration extra_latency{};   // added to the command's model latency
};

// A signed attestation of a PCR selection.
struct Quote {
  crypto::Bytes nonce;
  uint32_t pcr_mask = 0;
  std::vector<crypto::Digest> pcr_values;  // ascending PCR index order
  crypto::EcdsaSignature signature;        // by the quoting AIK
  // Nonce point R = k·G of the signature, carried as an UNTRUSTED batch-
  // verification accelerator hint (saves the verifier a square root per
  // quote).  Not covered by the signature — VerifyQuoteBatch validates it
  // before use and a corrupted hint can never flip a verdict.  Optional on
  // the wire for compatibility with hint-less quotes.
  std::optional<crypto::EcPoint> r_hint;

  // Digest the signature covers.
  crypto::Digest MessageDigest() const;

  crypto::Bytes Serialize() const;
  static std::optional<Quote> Deserialize(crypto::ByteView data);
};

class Tpm {
 public:
  // endorsement_seed determines the EK; latency models command cost.
  Tpm(crypto::ByteView endorsement_seed, const TpmLatencyModel& latency);

  const crypto::EcPoint& ek_public() const { return ek_public_; }
  const TpmLatencyModel& latency() const { return latency_; }

  // Fault injection.  The Tpm itself is passive (latencies are charged by
  // the coroutine drivers), so callers consult TakeFault("quote") etc.
  // before issuing a command and honour the verdict.  The hook must be
  // deterministic for a given seed.
  using FaultHook = std::function<TpmFault(std::string_view command)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }
  TpmFault TakeFault(std::string_view command) {
    return fault_hook_ ? fault_hook_(command) : TpmFault{};
  }

  // Generates (or regenerates) the attestation identity key.
  void CreateAik();
  bool has_aik() const { return aik_private_.has_value(); }
  const crypto::EcPoint& aik_public() const { return aik_public_; }

  // PCR operations.
  void ExtendPcr(int index, const crypto::Digest& measurement);
  const crypto::Digest& ReadPcr(int index) const;
  // Power-cycle semantics: PCRs reset to zero, EK and (persisted) AIK
  // survive.
  void Reset();
  // True if the PCR still holds its power-on value.
  bool PcrIsClean(int index) const;

  // Produces a quote over the PCRs selected by pcr_mask (bit i = PCR i),
  // signed with the AIK.  Requires CreateAik() first.
  Quote MakeQuote(crypto::ByteView nonce, uint32_t pcr_mask) const;

  // A quote split around its command latency.  StartQuote records the
  // nonce, the mask, the selected PCR values and the AIK and, given a
  // pool, signs them there while the simulated latency elapses.
  // FinishQuote keeps that signature only if the selected PCRs and the AIK
  // still hold the recorded values, and otherwise calls MakeQuote — so its
  // result is byte-identical to MakeQuote at the instant it runs.  A
  // PendingQuote may be dropped unfinished: the signing task owns copies
  // of everything it reads and writes.
  class PendingQuote {
   private:
    friend class Tpm;
    struct Signed {
      crypto::EcdsaSignature signature;
      crypto::EcPoint nonce_point;
    };
    Quote quote;  // unsigned: nonce, mask and the selected PCR values
    crypto::U256 aik;
    std::shared_ptr<Signed> result;
    sim::WorkerPool::Ticket ticket;  // null: nothing was signed ahead
  };
  PendingQuote StartQuote(crypto::ByteView nonce, uint32_t pcr_mask,
                          sim::WorkerPool* pool) const;
  Quote FinishQuote(PendingQuote pending) const;

  // Verifies signature and internal consistency of a quote against an
  // expected AIK public key.  The PreparedKey overload is the polling hot
  // path: the caller validates and tables the AIK once, and every
  // subsequent quote check skips the on-curve test and runs the short
  // precomputed verify ladder.
  static bool VerifyQuote(const Quote& quote, const crypto::EcPoint& aik_public);
  static bool VerifyQuote(const Quote& quote,
                          const crypto::P256::PreparedKey& aik_public);

  // Fleet-rate path: verifies many quotes in one multi-scalar batched
  // signature check (P256::VerifyBatch), sharing one doubling chain and one
  // modular inversion across the whole batch and consuming each quote's
  // r_hint when it validates.  ok[i] is exactly what VerifyQuote would
  // return for entries[i] — a bad quote in the batch is bisected out and
  // blamed individually, never masked and never contagious.  Returns true
  // iff every entry verified.
  struct QuoteBatchEntry {
    const Quote* quote = nullptr;
    const crypto::P256::PreparedKey* aik = nullptr;
  };
  static bool VerifyQuoteBatch(std::span<const QuoteBatchEntry> entries, bool* ok,
                               crypto::P256::BatchStats* stats = nullptr);

  // TPM2_ActivateCredential: recovers the secret from MakeCredential's
  // blob iff this TPM holds the EK private key and its current AIK matches
  // the AIK the blob was bound to.
  std::optional<crypto::Bytes> ActivateCredential(crypto::ByteView blob) const;

  // TPM2 sealed storage: binds a secret to the *current* values of the
  // selected PCRs.  Unseal succeeds only on this TPM and only while those
  // PCRs hold the same values — e.g. a disk key sealed in a known-good
  // boot state becomes unrecoverable after booting modified firmware.
  struct SealedBlob {
    uint32_t pcr_mask = 0;
    crypto::Bytes ciphertext;  // nonce || GCM(secret) under a policy key
  };
  SealedBlob Seal(crypto::ByteView secret, uint32_t pcr_mask, crypto::Drbg& drbg) const;
  std::optional<crypto::Bytes> Unseal(const SealedBlob& blob) const;

 private:
  crypto::Digest PolicyDigest(uint32_t pcr_mask) const;
  // The quote's nonce, mask and selected PCR values, not yet signed.
  Quote UnsignedQuote(crypto::ByteView nonce, uint32_t pcr_mask) const;

  TpmLatencyModel latency_;
  FaultHook fault_hook_;
  crypto::Drbg drbg_;
  crypto::Bytes storage_root_key_;
  crypto::U256 ek_private_;
  crypto::EcPoint ek_public_;
  std::optional<crypto::U256> aik_private_;
  crypto::EcPoint aik_public_;
  std::array<crypto::Digest, kNumPcrs> pcrs_{};
};

// Registrar-side half of the credential-activation protocol: encrypts
// secret so that only the TPM holding ek_public can recover it, and only
// if its AIK equals aik_public.
crypto::Bytes MakeCredential(const crypto::EcPoint& ek_public,
                             const crypto::EcPoint& aik_public,
                             crypto::ByteView secret, crypto::Drbg& drbg);

// The hash-extend rule PCRs obey; exposed so verifiers can replay event
// logs: new = SHA256(old || measurement).
crypto::Digest ExtendDigest(const crypto::Digest& old_value,
                            const crypto::Digest& measurement);

}  // namespace bolted::tpm

#endif  // SRC_TPM_TPM_H_
