#include "src/keylime/registrar.h"

#include "src/crypto/wire.h"
#include "src/tpm/tpm.h"

namespace bolted::keylime {

Registrar::Registrar(sim::Simulation& sim, net::Endpoint& endpoint, uint64_t seed)
    : sim_(sim), node_(sim, endpoint), drbg_(seed) {
  node_.RegisterHandler(std::string(kRpcRegister),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleRegister(req, resp);
                        });
  node_.RegisterHandler(std::string(kRpcActivate),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleActivate(req, resp);
                        });
  node_.RegisterHandler(std::string(kRpcGetKeys),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleGetKeys(req, resp);
                        });
  node_.Start();
}

std::optional<NodeKeys> Registrar::Lookup(const std::string& node) const {
  const auto it = records_.find(node);
  if (it == records_.end()) {
    return std::nullopt;
  }
  return it->second.keys;
}

sim::Task Registrar::HandleRegister(const net::Message& request,
                                    net::Message* response) {
  crypto::WireReader reader(request.payload);
  const std::string name = reader.Str();
  const auto ek = crypto::EcPoint::Decode(reader.Blob());
  const auto aik = crypto::EcPoint::Decode(reader.Blob());
  const auto nk = crypto::EcPoint::Decode(reader.Blob());
  if (!reader.AtEnd() || !ek || !aik || !nk) {
    response->kind = "kl.reg.error";
    co_return;
  }

  // Challenge: a fresh secret only the TPM holding `ek` can recover, and
  // only while its AIK matches.
  const crypto::Bytes secret = drbg_.Generate(32);
  const crypto::Bytes blob = tpm::MakeCredential(*ek, *aik, secret, drbg_);

  Record record;
  record.keys = NodeKeys{*ek, *aik, *nk, /*activated=*/false};
  record.expected_secret_hash = crypto::Sha256::Hash(secret);
  records_[name] = std::move(record);

  response->payload = crypto::WireWriter().Blob(blob).Take();
}

sim::Task Registrar::HandleActivate(const net::Message& request,
                                    net::Message* response) {
  crypto::WireReader reader(request.payload);
  const std::string name = reader.Str();
  const crypto::Digest proof = reader.Digest();
  const auto it = records_.find(name);
  uint32_t ok = 0;
  if (reader.AtEnd() && it != records_.end() &&
      crypto::ConstantTimeEqual(crypto::DigestView(proof),
                                crypto::DigestView(it->second.expected_secret_hash))) {
    it->second.keys.activated = true;
    it->second.encoded_keys.clear();
    ok = 1;
  }
  response->payload = crypto::WireWriter().U32(ok).Take();
  co_return;
}

sim::Task Registrar::HandleGetKeys(const net::Message& request,
                                   net::Message* response) {
  crypto::WireReader reader(request.payload);
  const std::string name = reader.Str();
  const auto it = records_.find(name);
  if (!reader.AtEnd() || it == records_.end()) {
    response->kind = "kl.reg.error";
    co_return;
  }
  Record& record = it->second;
  if (record.encoded_keys.empty()) {
    record.encoded_keys = crypto::WireWriter()
                              .Blob(record.keys.ek.Encode())
                              .Blob(record.keys.aik.Encode())
                              .Blob(record.keys.nk.Encode())
                              .U32(record.keys.activated ? 1 : 0)
                              .Take();
  }
  response->payload = record.encoded_keys;
}

}  // namespace bolted::keylime
