#include "src/tpm/tpm.h"

#include <cassert>
#include <utility>

#include "src/crypto/hmac.h"
#include "src/crypto/wire.h"

namespace bolted::tpm {
namespace {

constexpr std::string_view kQuoteContext = "BOLTED_TPM_QUOTE_V1";
constexpr std::string_view kCredentialContext = "BOLTED_TPM_CREDENTIAL_V1";

crypto::Bytes CredentialKdfInfo(const crypto::EcPoint& aik_public) {
  crypto::Bytes info = crypto::ToBytes(kCredentialContext);
  const crypto::Digest aik_digest = crypto::Sha256::Hash(aik_public.Encode());
  crypto::Append(info, crypto::DigestView(aik_digest));
  return info;
}

}  // namespace

crypto::Digest ExtendDigest(const crypto::Digest& old_value,
                            const crypto::Digest& measurement) {
  crypto::Sha256 h;
  h.Update(crypto::DigestView(old_value));
  h.Update(crypto::DigestView(measurement));
  return h.Finish();
}

crypto::Digest Quote::MessageDigest() const {
  crypto::Bytes message = crypto::ToBytes(kQuoteContext);
  crypto::Append(message, nonce);
  crypto::AppendU32(message, pcr_mask);
  for (const crypto::Digest& value : pcr_values) {
    crypto::Append(message, crypto::DigestView(value));
  }
  return crypto::Sha256::Hash(message);
}

crypto::Bytes Quote::Serialize() const {
  crypto::WireWriter writer;
  writer.Blob(nonce).U32(pcr_mask).U32(static_cast<uint32_t>(pcr_values.size()));
  for (const crypto::Digest& value : pcr_values) {
    writer.Digest(value);
  }
  writer.Raw(signature.Encode());
  if (r_hint.has_value()) {
    writer.Raw(r_hint->x.ToBytes()).Raw(r_hint->y.ToBytes());
  }
  return writer.Take();
}

std::optional<Quote> Quote::Deserialize(crypto::ByteView data) {
  crypto::WireReader reader(data);
  Quote quote;
  quote.nonce = reader.Blob();
  quote.pcr_mask = reader.U32();
  const uint32_t value_count = reader.U32();
  if (!reader.ok() || quote.nonce.size() > 1024 || value_count > kNumPcrs) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < value_count; ++i) {
    quote.pcr_values.push_back(reader.Digest());
  }
  // Trailer is the 64-byte signature, optionally followed by a 64-byte
  // nonce-point hint (x || y) for batched verification.
  const auto signature = crypto::EcdsaSignature::Decode(reader.Raw(64));
  if (!signature) {
    return std::nullopt;
  }
  quote.signature = *signature;
  if (!reader.AtEnd()) {
    const crypto::ByteView hint = reader.Raw(64);
    if (!reader.AtEnd()) {
      return std::nullopt;
    }
    quote.r_hint = crypto::EcPoint{.x = crypto::U256::FromBytes(hint.first(32)),
                                   .y = crypto::U256::FromBytes(hint.subspan(32))};
  }
  return quote;
}

Tpm::Tpm(crypto::ByteView endorsement_seed, const TpmLatencyModel& latency)
    : latency_(latency), drbg_(endorsement_seed) {
  const crypto::P256& curve = crypto::P256::Instance();
  ek_private_ = curve.PrivateKeyFromSeed(drbg_.Generate(32));
  ek_public_ = curve.PublicKey(ek_private_);
  storage_root_key_ = drbg_.Generate(32);  // SRK: survives power cycles
}

crypto::Digest Tpm::PolicyDigest(uint32_t pcr_mask) const {
  crypto::Sha256 h;
  h.Update(crypto::ToBytes("BOLTED_TPM_PCR_POLICY_V1"));
  crypto::Bytes mask_bytes;
  crypto::AppendU32(mask_bytes, pcr_mask);
  h.Update(mask_bytes);
  for (int i = 0; i < kNumPcrs; ++i) {
    if (pcr_mask & (1u << i)) {
      h.Update(crypto::DigestView(pcrs_[static_cast<size_t>(i)]));
    }
  }
  return h.Finish();
}

Tpm::SealedBlob Tpm::Seal(crypto::ByteView secret, uint32_t pcr_mask,
                          crypto::Drbg& drbg) const {
  const crypto::Digest policy = PolicyDigest(pcr_mask);
  const crypto::Bytes key =
      crypto::Hkdf(crypto::DigestView(policy), storage_root_key_,
                   crypto::ToBytes("tpm-seal"), 32);
  const crypto::Bytes nonce = drbg.Generate(crypto::AesGcm::kNonceSize);
  SealedBlob blob;
  blob.pcr_mask = pcr_mask;
  blob.ciphertext = nonce;
  crypto::Append(blob.ciphertext, crypto::AesGcm(key).Seal(nonce, secret, {}));
  return blob;
}

std::optional<crypto::Bytes> Tpm::Unseal(const SealedBlob& blob) const {
  if (blob.ciphertext.size() < crypto::AesGcm::kNonceSize + crypto::AesGcm::kTagSize) {
    return std::nullopt;
  }
  // The policy key is derived from the PCRs *as they are now*; any drift
  // since Seal() yields a different key and authentication fails.
  const crypto::Digest policy = PolicyDigest(blob.pcr_mask);
  const crypto::Bytes key =
      crypto::Hkdf(crypto::DigestView(policy), storage_root_key_,
                   crypto::ToBytes("tpm-seal"), 32);
  const crypto::ByteView nonce(blob.ciphertext.data(), crypto::AesGcm::kNonceSize);
  return crypto::AesGcm(key).Open(
      nonce,
      crypto::ByteView(blob.ciphertext.data() + crypto::AesGcm::kNonceSize,
                       blob.ciphertext.size() - crypto::AesGcm::kNonceSize),
      {});
}

void Tpm::CreateAik() {
  const crypto::P256& curve = crypto::P256::Instance();
  aik_private_ = curve.PrivateKeyFromSeed(drbg_.Generate(32));
  aik_public_ = curve.PublicKey(*aik_private_);
}

void Tpm::ExtendPcr(int index, const crypto::Digest& measurement) {
  assert(index >= 0 && index < kNumPcrs);
  pcrs_[static_cast<size_t>(index)] =
      ExtendDigest(pcrs_[static_cast<size_t>(index)], measurement);
}

const crypto::Digest& Tpm::ReadPcr(int index) const {
  assert(index >= 0 && index < kNumPcrs);
  return pcrs_[static_cast<size_t>(index)];
}

void Tpm::Reset() { pcrs_.fill(crypto::Digest{}); }

bool Tpm::PcrIsClean(int index) const { return ReadPcr(index) == crypto::Digest{}; }

Quote Tpm::UnsignedQuote(crypto::ByteView nonce, uint32_t pcr_mask) const {
  assert(aik_private_.has_value() && "CreateAik() must be called before quoting");
  Quote quote;
  quote.nonce.assign(nonce.begin(), nonce.end());
  quote.pcr_mask = pcr_mask;
  for (int i = 0; i < kNumPcrs; ++i) {
    if (pcr_mask & (1u << i)) {
      quote.pcr_values.push_back(pcrs_[static_cast<size_t>(i)]);
    }
  }
  return quote;
}

Quote Tpm::MakeQuote(crypto::ByteView nonce, uint32_t pcr_mask) const {
  Quote quote = UnsignedQuote(nonce, pcr_mask);
  // Sign in the batch-friendly even-y form and ship the nonce point as the
  // verifier's batch hint (the digest does not cover it; see Quote::r_hint).
  crypto::EcPoint nonce_point;
  quote.signature = crypto::P256::Instance().Sign(
      *aik_private_, quote.MessageDigest(), &nonce_point);
  quote.r_hint = nonce_point;
  return quote;
}

Tpm::PendingQuote Tpm::StartQuote(crypto::ByteView nonce, uint32_t pcr_mask,
                                  sim::WorkerPool* pool) const {
  PendingQuote pending;
  pending.quote = UnsignedQuote(nonce, pcr_mask);
  if (pool == nullptr) {
    return pending;  // nothing signed ahead: FinishQuote calls MakeQuote
  }
  pending.aik = *aik_private_;
  pending.result = std::make_shared<PendingQuote::Signed>();
  pending.ticket = pool->Submit(
      [key = pending.aik, digest = pending.quote.MessageDigest(),
       result = pending.result] {
        result->signature =
            crypto::P256::Instance().Sign(key, digest, &result->nonce_point);
      });
  return pending;
}

Quote Tpm::FinishQuote(PendingQuote pending) const {
  Quote& quote = pending.quote;
  bool unchanged = pending.ticket != nullptr && *aik_private_ == pending.aik;
  for (int i = 0, k = 0; unchanged && i < kNumPcrs; ++i) {
    if (quote.pcr_mask & (1u << i)) {
      unchanged = quote.pcr_values[static_cast<size_t>(k++)] ==
                  pcrs_[static_cast<size_t>(i)];
    }
  }
  if (!unchanged) {
    return MakeQuote(quote.nonce, quote.pcr_mask);
  }
  sim::WorkerPool::Wait(pending.ticket);
  quote.signature = pending.result->signature;
  quote.r_hint = pending.result->nonce_point;
  return std::move(quote);
}

namespace {

// The value list must match the mask's population count.
bool QuoteShapeOk(const Quote& quote) {
  uint32_t bits = quote.pcr_mask;
  size_t expected = 0;
  while (bits != 0) {
    expected += bits & 1;
    bits >>= 1;
  }
  return quote.pcr_values.size() == expected;
}

}  // namespace

bool Tpm::VerifyQuote(const Quote& quote, const crypto::EcPoint& aik_public) {
  return QuoteShapeOk(quote) &&
         crypto::P256::Instance().Verify(aik_public, quote.MessageDigest(),
                                         quote.signature);
}

bool Tpm::VerifyQuote(const Quote& quote,
                      const crypto::P256::PreparedKey& aik_public) {
  return QuoteShapeOk(quote) &&
         crypto::P256::Instance().Verify(aik_public, quote.MessageDigest(),
                                         quote.signature);
}

bool Tpm::VerifyQuoteBatch(std::span<const QuoteBatchEntry> entries, bool* ok,
                           crypto::P256::BatchStats* stats) {
  const size_t n = entries.size();
  std::vector<crypto::P256::BatchEntry> batch(n);
  for (size_t i = 0; i < n; ++i) {
    const QuoteBatchEntry& e = entries[i];
    ok[i] = false;
    if (e.quote == nullptr || e.aik == nullptr || !QuoteShapeOk(*e.quote)) {
      continue;  // key stays null; VerifyBatch reports it false
    }
    batch[i].key = e.aik;
    batch[i].message_hash = e.quote->MessageDigest();
    batch[i].signature = e.quote->signature;
    if (e.quote->r_hint.has_value()) {
      batch[i].r_hint = &*e.quote->r_hint;
    }
  }
  return crypto::P256::Instance().VerifyBatch(batch, ok, stats);
}

crypto::Bytes MakeCredential(const crypto::EcPoint& ek_public,
                             const crypto::EcPoint& aik_public,
                             crypto::ByteView secret, crypto::Drbg& drbg) {
  const crypto::P256& curve = crypto::P256::Instance();
  const crypto::U256 ephemeral = curve.PrivateKeyFromSeed(drbg.Generate(32));
  const crypto::EcPoint ephemeral_public = curve.PublicKey(ephemeral);
  const auto shared = curve.SharedSecret(ephemeral, ek_public);
  assert(shared.has_value());

  const crypto::Bytes key =
      crypto::Hkdf({}, *shared, CredentialKdfInfo(aik_public), 32);
  const crypto::Bytes nonce = drbg.Generate(crypto::AesGcm::kNonceSize);
  const crypto::Bytes sealed = crypto::AesGcm(key).Seal(nonce, secret, {});

  crypto::Bytes blob = ephemeral_public.Encode();  // 65 bytes
  crypto::Append(blob, nonce);
  crypto::Append(blob, sealed);
  return blob;
}

std::optional<crypto::Bytes> Tpm::ActivateCredential(crypto::ByteView blob) const {
  if (!aik_private_.has_value() || blob.size() < 65 + crypto::AesGcm::kNonceSize) {
    return std::nullopt;
  }
  const auto ephemeral_public = crypto::EcPoint::Decode(blob.subspan(0, 65));
  if (!ephemeral_public) {
    return std::nullopt;
  }
  const crypto::ByteView nonce = blob.subspan(65, crypto::AesGcm::kNonceSize);
  const crypto::ByteView sealed = blob.subspan(65 + crypto::AesGcm::kNonceSize);

  const auto shared =
      crypto::P256::Instance().SharedSecret(ek_private_, *ephemeral_public);
  if (!shared) {
    return std::nullopt;
  }
  // Binding: the KDF mixes in *this TPM's current AIK*; a different AIK
  // yields a different key and authentication fails.
  const crypto::Bytes key =
      crypto::Hkdf({}, *shared, CredentialKdfInfo(aik_public_), 32);
  return crypto::AesGcm(key).Open(nonce, sealed, {});
}

}  // namespace bolted::tpm
