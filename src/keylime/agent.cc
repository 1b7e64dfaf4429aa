#include "src/keylime/agent.h"

#include <algorithm>

#include "src/crypto/ecies.h"
#include "src/crypto/wire.h"
#include "src/keylime/registrar.h"
#include "src/obs/obs.h"

namespace bolted::keylime {
namespace {

// TPM command accounting, by opcode: the full charged latency (model cost
// plus any injected spike) lands in a per-opcode histogram, and failed
// commands are counted separately so chaos traces show where a stalled
// phase burned its time.  The per-opcode metric ids are cached so a busy
// attestation loop never rebuilds the concatenated names.
void ObserveTpmCommand(sim::Simulation& sim, std::string_view opcode,
                       sim::Duration charged, bool failed) {
#if BOLTED_OBS
  if (obs::Registry* r = sim.observer()) {
    struct OpcodeIds {
      uint32_t cmd_ns;
      uint32_t cmd_failed;
    };
    static thread_local std::map<std::string, OpcodeIds, std::less<>> cache;
    auto it = cache.find(opcode);
    if (it == cache.end()) {
      const OpcodeIds ids{
          obs::InternMetric("tpm.cmd_ns." + std::string(opcode)),
          obs::InternMetric("tpm.cmd_failed." + std::string(opcode))};
      it = cache.emplace(std::string(opcode), ids).first;
    }
    r->RecordDurationById(it->second.cmd_ns, charged);
    if (failed) {
      r->AddById(it->second.cmd_failed);
    }
  }
#else
  (void)sim;
  (void)opcode;
  (void)charged;
  (void)failed;
#endif
}

}  // namespace

Agent::Agent(machine::Machine& machine, uint64_t seed)
    : machine_(machine), drbg_(seed), payload_ready_(machine.simulation()) {
  const crypto::P256& curve = crypto::P256::Instance();
  nk_private_ = curve.PrivateKeyFromSeed(drbg_.Generate(32));
  nk_public_ = curve.PublicKey(nk_private_);

  net::RpcNode& node = machine_.rpc();
  node.RegisterHandler(std::string(kRpcQuote),
                       [this](const net::Message& req, net::Message* resp) {
                         return HandleQuote(req, resp);
                       });
  node.RegisterHandler(std::string(kRpcDeliverU),
                       [this](const net::Message& req, net::Message* resp) {
                         return HandleDeliverU(req, resp);
                       });
  node.RegisterHandler(std::string(kRpcDeliverV),
                       [this](const net::Message& req, net::Message* resp) {
                         return HandleDeliverV(req, resp);
                       });
  node.RegisterHandler(std::string(kRpcRevoke),
                       [this](const net::Message& req, net::Message* resp) {
                         return HandleRevoke(req, resp);
                       });
}

sim::Task Agent::RegisterWithRegistrar(net::Address registrar,
                                       const std::string& node_name, bool* ok) {
  *ok = false;
  sim::Simulation& sim = machine_.simulation();
  tpm::Tpm& tpm = machine_.tpm();

  // AIK creation is the slow TPM operation in registration; transient TPM
  // command failures (injected by the fault layer) are retried a bounded
  // number of times before the whole registration is reported failed.
  bool aik_created = false;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const tpm::TpmFault fault = tpm.TakeFault("create_aik");
    co_await sim::Delay(sim, tpm.latency().create_aik + fault.extra_latency);
    ObserveTpmCommand(sim, "create_aik", tpm.latency().create_aik + fault.extra_latency,
                      fault.fail);
    if (!fault.fail) {
      tpm.CreateAik();
      aik_created = true;
      break;
    }
  }
  if (!aik_created) {
    co_return;
  }

  // Registration happens once per boot, often right after a reboot while
  // the fabric is still settling — worth a couple of resends.
  net::CallOptions options;
  options.timeout = sim::Duration::Seconds(10);
  options.max_attempts = 3;

  net::Message request;
  request.kind = std::string(kRpcRegister);
  request.payload = crypto::WireWriter()
                        .Str(node_name)
                        .Blob(tpm.ek_public().Encode())
                        .Blob(tpm.aik_public().Encode())
                        .Blob(nk_public_.Encode())
                        .Take();
  net::Message response;
  bool rpc_ok = false;
  co_await machine_.rpc().CallWithRetry(registrar, std::move(request), &response,
                                        &rpc_ok, options);
  if (!rpc_ok || response.kind == "kl.reg.error") {
    co_return;
  }

  crypto::WireReader reader(response.payload);
  const crypto::Bytes blob = reader.Blob();
  if (!reader.AtEnd()) {
    co_return;
  }

  const tpm::TpmFault activate_fault = tpm.TakeFault("activate_credential");
  co_await sim::Delay(
      sim, tpm.latency().activate_credential + activate_fault.extra_latency);
  ObserveTpmCommand(sim, "activate_credential",
                    tpm.latency().activate_credential + activate_fault.extra_latency,
                    activate_fault.fail);
  if (activate_fault.fail) {
    co_return;
  }
  const auto secret = tpm.ActivateCredential(blob);
  if (!secret) {
    co_return;
  }

  net::Message activate;
  activate.kind = std::string(kRpcActivate);
  activate.payload = crypto::WireWriter()
                         .Str(node_name)
                         .Digest(crypto::Sha256::Hash(*secret))
                         .Take();
  net::Message activate_response;
  co_await machine_.rpc().CallWithRetry(registrar, std::move(activate),
                                        &activate_response, &rpc_ok, options);
  if (!rpc_ok) {
    co_return;
  }
  crypto::WireReader activate_reader(activate_response.payload);
  *ok = activate_reader.U32() == 1 && activate_reader.AtEnd();
}

sim::Task Agent::HandleQuote(const net::Message& request, net::Message* response) {
  crypto::WireReader reader(request.payload);
  const crypto::Bytes nonce = reader.Blob();
  const uint32_t mask = reader.U32();
  // Incremental attestation: the verifier tells us how many IMA events it
  // has already validated; only the suffix travels (real Keylime's
  // behaviour — full lists grow to megabytes under IMA stress policies).
  const uint64_t ima_since = reader.U64();
  if (!reader.AtEnd() || !machine_.tpm().has_aik()) {
    response->kind = "kl.agent.error";
    co_return;
  }
  // A faulted quote command still burns the command time (plus any injected
  // latency spike) before the agent reports the error.  The signature is
  // computed on the simulation's worker pool, when it has one, while the
  // latency elapses; FinishQuote re-signs if the PCRs or the AIK moved.
  const tpm::TpmFault fault = machine_.tpm().TakeFault("quote");
  tpm::Tpm::PendingQuote pending = machine_.tpm().StartQuote(
      nonce, mask, machine_.simulation().worker_pool());
  co_await sim::Delay(machine_.simulation(),
                      machine_.tpm().latency().quote + fault.extra_latency);
  ObserveTpmCommand(machine_.simulation(), "quote",
                    machine_.tpm().latency().quote + fault.extra_latency,
                    fault.fail);
  if (fault.fail) {
    response->kind = "kl.agent.error";
    co_return;
  }
  const tpm::Quote quote = machine_.tpm().FinishQuote(std::move(pending));

  const tpm::EventLog empty;
  const tpm::EventLog& full_ima =
      ima_ != nullptr ? ima_->measurement_list() : empty;
  const uint64_t total = full_ima.size();
  const crypto::Bytes ima_delta =
      full_ima.SubLog(static_cast<size_t>(std::min(ima_since, total))).Serialize();
  response->payload = crypto::WireWriter()
                          .Blob(quote.Serialize())
                          .Blob(machine_.boot_log().Serialize())
                          .U64(total)
                          .Blob(ima_delta)
                          .Take();
}

sim::Task Agent::HandleDeliverU(const net::Message& request, net::Message* response) {
  crypto::WireReader reader(request.payload);
  const crypto::Bytes sealed_u = reader.Blob();
  uint32_t ok = 0;
  if (reader.AtEnd()) {
    if (auto u = crypto::EciesOpen(nk_private_, sealed_u)) {
      u_half_ = std::move(*u);
      ok = 1;
      TryCombine();
    }
  }
  response->payload = crypto::WireWriter().U32(ok).Take();
  co_return;
}

sim::Task Agent::HandleDeliverV(const net::Message& request, net::Message* response) {
  crypto::WireReader reader(request.payload);
  const crypto::Bytes sealed_v = reader.Blob();
  const crypto::Bytes sealed_payload = reader.Blob();
  uint32_t ok = 0;
  if (reader.AtEnd()) {
    if (auto v = crypto::EciesOpen(nk_private_, sealed_v)) {
      v_half_ = std::move(*v);
      sealed_payload_ = sealed_payload;
      ok = 1;
      TryCombine();
    }
  }
  response->payload = crypto::WireWriter().U32(ok).Take();
  co_return;
}

void Agent::TryCombine() {
  if (!u_half_ || !v_half_ || payload_ready_.is_set()) {
    return;
  }
  auto payload = OpenPayload(*u_half_, *v_half_, sealed_payload_);
  if (payload) {
    payload_ = std::move(*payload);
  } else {
    combine_failed_ = true;
  }
  payload_ready_.Set();
}

sim::Task Agent::AwaitPayload(TenantPayload* payload, bool* ok) {
  co_await payload_ready_;
  if (payload_.has_value()) {
    *payload = *payload_;
    *ok = true;
  } else {
    *ok = false;
  }
}

sim::Task Agent::HandleRevoke(const net::Message& request, net::Message* response) {
  crypto::WireReader reader(request.payload);
  const uint32_t peer = reader.U32();
  if (reader.AtEnd()) {
    // Cut the compromised node out of the mesh: drop its SA so further
    // ESP traffic fails authentication.
    machine_.ipsec().RemoveSa(peer);
    ++revocations_received_;
  }
  response->payload = crypto::WireWriter().U32(1).Take();
  co_return;
}

}  // namespace bolted::keylime
