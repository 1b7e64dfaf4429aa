// Keylime agent: runs on the server being attested (§5).
//
// Downloaded and measured by LinuxBoot in the airlock, the agent
//   (i)   creates a per-boot node key (NK),
//   (ii)  registers EK/AIK/NK with the registrar and completes the
//         credential-activation proof,
//   (iii) answers quote requests (TPM quote + boot event log + IMA list),
//   (iv)  receives the U and V bootstrap-key halves, recombines them, and
//         opens the tenant payload,
//   (v)   acts on revocation notifications by tearing down IPsec SAs.

#ifndef SRC_KEYLIME_AGENT_H_
#define SRC_KEYLIME_AGENT_H_

#include <optional>
#include <string>

#include "src/crypto/drbg.h"
#include "src/ima/ima.h"
#include "src/keylime/payload.h"
#include "src/machine/machine.h"

namespace bolted::keylime {

inline constexpr std::string_view kRpcQuote = "kl.agent.quote";
inline constexpr std::string_view kRpcDeliverU = "kl.agent.u";
inline constexpr std::string_view kRpcDeliverV = "kl.agent.v";
inline constexpr std::string_view kRpcRevoke = "kl.agent.revoke";

// PCR selection the verifier demands: firmware, bootloader, kernel, IMA.
inline constexpr uint32_t kQuotePcrMask =
    (1u << tpm::kPcrFirmware) | (1u << tpm::kPcrBootloader) |
    (1u << tpm::kPcrKernel) | (1u << tpm::kPcrIma);

class Agent {
 public:
  // Installs handlers on the machine's RpcNode.  `ima` may be null until
  // the tenant OS boots (runtime measurements then flow through it).
  Agent(machine::Machine& machine, uint64_t seed);

  const crypto::EcPoint& node_key_public() const { return nk_public_; }

  // Performs AIK creation + registration + credential activation against
  // the registrar.  Sets *ok.
  sim::Task RegisterWithRegistrar(net::Address registrar, const std::string& node_name,
                                  bool* ok);

  // Suspends until both key halves have arrived and the payload opened.
  // Sets *payload on success; *ok=false if recombination failed.
  sim::Task AwaitPayload(TenantPayload* payload, bool* ok);

  void AttachIma(ima::Ima* ima) { ima_ = ima; }

  uint64_t revocations_received() const { return revocations_received_; }

 private:
  sim::Task HandleQuote(const net::Message& request, net::Message* response);
  sim::Task HandleDeliverU(const net::Message& request, net::Message* response);
  sim::Task HandleDeliverV(const net::Message& request, net::Message* response);
  sim::Task HandleRevoke(const net::Message& request, net::Message* response);
  void TryCombine();

  machine::Machine& machine_;
  crypto::Drbg drbg_;
  crypto::U256 nk_private_;
  crypto::EcPoint nk_public_;
  ima::Ima* ima_ = nullptr;

  std::optional<crypto::Bytes> u_half_;
  std::optional<crypto::Bytes> v_half_;
  crypto::Bytes sealed_payload_;
  std::optional<TenantPayload> payload_;
  bool combine_failed_ = false;
  sim::Event payload_ready_;

  uint64_t revocations_received_ = 0;
};

}  // namespace bolted::keylime

#endif  // SRC_KEYLIME_AGENT_H_
