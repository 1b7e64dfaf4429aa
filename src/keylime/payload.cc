#include "src/keylime/payload.h"

#include "src/crypto/aes_gcm.h"
#include "src/crypto/hmac.h"
#include "src/crypto/wire.h"

namespace bolted::keylime {

crypto::Bytes TenantPayload::Serialize() const {
  return crypto::WireWriter()
      .Digest(kernel_digest)
      .Digest(initrd_digest)
      .U64(kernel_bytes)
      .U64(initrd_bytes)
      .Blob(disk_secret)
      .Blob(network_key_seed)
      .Str(boot_script)
      .Take();
}

std::optional<TenantPayload> TenantPayload::Deserialize(crypto::ByteView data) {
  crypto::WireReader reader(data);
  TenantPayload payload;
  payload.kernel_digest = reader.Digest();
  payload.initrd_digest = reader.Digest();
  payload.kernel_bytes = reader.U64();
  payload.initrd_bytes = reader.U64();
  payload.disk_secret = reader.Blob();
  payload.network_key_seed = reader.Blob();
  payload.boot_script = reader.Str();
  if (!reader.AtEnd()) {
    return std::nullopt;
  }
  return payload;
}

SplitPayload SealPayload(const TenantPayload& payload, crypto::Drbg& drbg) {
  SplitPayload split;
  const crypto::Bytes k = drbg.Generate(32);
  split.u_half = drbg.Generate(32);
  split.v_half = crypto::Xor(k, split.u_half);

  const crypto::Bytes nonce = drbg.Generate(crypto::AesGcm::kNonceSize);
  split.sealed_payload = nonce;
  crypto::Append(split.sealed_payload,
                 crypto::AesGcm(k).Seal(nonce, payload.Serialize(), {}));
  return split;
}

std::optional<TenantPayload> OpenPayload(crypto::ByteView u_half,
                                         crypto::ByteView v_half,
                                         crypto::ByteView sealed_payload) {
  if (u_half.size() != 32 || v_half.size() != 32 ||
      sealed_payload.size() < crypto::AesGcm::kNonceSize + crypto::AesGcm::kTagSize) {
    return std::nullopt;
  }
  const crypto::Bytes k = crypto::Xor(u_half, v_half);
  const crypto::ByteView nonce = sealed_payload.subspan(0, crypto::AesGcm::kNonceSize);
  const auto plain = crypto::AesGcm(k).Open(
      nonce, sealed_payload.subspan(crypto::AesGcm::kNonceSize), {});
  if (!plain) {
    return std::nullopt;
  }
  return TenantPayload::Deserialize(*plain);
}

crypto::Bytes DerivePairKey(crypto::ByteView network_key_seed, uint32_t node_a,
                            uint32_t node_b) {
  if (node_a > node_b) {
    std::swap(node_a, node_b);
  }
  crypto::Bytes info = crypto::ToBytes("ipsec-pair");
  crypto::AppendU32(info, node_a);
  crypto::AppendU32(info, node_b);
  return crypto::Hkdf({}, network_key_seed, info, 32);
}

}  // namespace bolted::keylime
