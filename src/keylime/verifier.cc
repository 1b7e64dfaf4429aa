#include "src/keylime/verifier.h"

#include <algorithm>
#include <memory>

#include "src/crypto/ecies.h"
#include "src/crypto/wire.h"
#include "src/keylime/agent.h"
#include "src/obs/obs.h"
#include "src/sim/worker_pool.h"
#include "src/tpm/tpm.h"

namespace bolted::keylime {
namespace {

// Consecutive transient failures the continuous loop tolerates before it
// quarantines the node as if it had failed integrity checks.
constexpr int kMaxTransientStrikes = 3;

constexpr char kUnknownNode[] = "unknown node";

// Extracts the quoted value for a PCR from a quote's (mask, values) pair.
const crypto::Digest* QuotedPcr(const tpm::Quote& quote, int pcr) {
  if ((quote.pcr_mask & (1u << pcr)) == 0) {
    return nullptr;
  }
  size_t index = 0;
  for (int i = 0; i < pcr; ++i) {
    if (quote.pcr_mask & (1u << i)) {
      ++index;
    }
  }
  return &quote.pcr_values[index];
}

// Splits an uncompressed SEC1 encoding into coordinates without the curve
// membership check — P256::Prepare performs it exactly once when the
// verifier's per-node cache misses.
std::optional<crypto::EcPoint> ParsePointUnchecked(crypto::ByteView encoded) {
  if (encoded.size() != 65 || encoded[0] != 0x04) {
    return std::nullopt;
  }
  crypto::EcPoint p;
  p.x = crypto::U256::FromBytes(encoded.subspan(1, 32));
  p.y = crypto::U256::FromBytes(encoded.subspan(33, 32));
  return p;
}

}  // namespace

bool IsTransientFailure(std::string_view failure) {
  // Everything else is evidence of a bad node, not a bad network: forged or
  // stale quotes, log mismatches, unwhitelisted measurements, registration
  // problems.
  return failure == "registrar lookup failed" || failure == "agent unreachable" ||
         failure == "payload delivery failed";
}

Verifier::Verifier(sim::Simulation& sim, net::Endpoint& endpoint,
                   net::Address registrar, uint64_t seed)
    : sim_(sim), node_(sim, endpoint), registrar_(registrar), drbg_(seed) {
  node_.Start();
}

void Verifier::AddNode(const std::string& name, NodeConfig config) {
  // A node added again starts from fresh state; verifications still in
  // flight on the old one end as "unknown node", as after RemoveNode.
  std::shared_ptr<NodeState>& state = nodes_[name];
  if (state != nullptr) {
    state->removed = true;
  }
  state = std::make_shared<NodeState>();
  state->config = std::move(config);
}

void Verifier::RemoveNode(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it != nodes_.end()) {
    it->second->removed = true;
    nodes_.erase(it);
  }
}

sim::Task Verifier::DeliverPayload(NodeState& state, bool* ok) {
  *ok = false;
  const crypto::Bytes sealed_v =
      crypto::EciesSeal(*state.nk_decoded, state.config.v_half, drbg_);

  net::Message message;
  message.kind = std::string(kRpcDeliverV);
  message.payload =
      crypto::WireWriter().Blob(sealed_v).Blob(state.config.sealed_payload).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await node_.Call(state.config.agent, std::move(message), &response, &rpc_ok);
  if (!rpc_ok) {
    co_return;
  }
  crypto::WireReader reader(response.payload);
  *ok = reader.U32() == 1 && reader.AtEnd();
  if (*ok) {
    state.payload_delivered = true;
  }
}

// Plain dispatcher: the traced wrapper (a second coroutine frame) is only
// interposed when a Registry is attached, so untraced runs — and the whole
// BOLTED_OBS=0 build — pay nothing for it.
sim::Task Verifier::VerifyNode(const std::string& name, VerificationResult* result) {
#if BOLTED_OBS
  if (sim_.observer() != nullptr) {
    return VerifyNodeTraced(name, result);
  }
#endif
  return VerifyNodeImpl(name, result);
}

sim::Task Verifier::VerifyNodeTraced(const std::string& name,
                                     VerificationResult* result) {
  obs::Span span(sim_, "keylime.verify", "keylime", "verify:" + name);
  co_await VerifyNodeImpl(name, result);
  if (result->passed) {
    obs::Count(sim_, "keylime.verify_pass");
  } else {
    obs::Count(sim_, "keylime.verify_fail");
    span.AddArg("failure", result->failure);
  }
  span.End();
}

const Verifier::BootReplay* Verifier::ReplayBootLog(const crypto::Bytes& wire) {
  const crypto::Digest key = crypto::Sha256::Hash(wire);
  const auto it = boot_log_cache_.find(key);
  if (it != boot_log_cache_.end()) {
    ++boot_log_cache_hits_;
    return &it->second;
  }
  auto decoded = tpm::EventLog::Deserialize(wire);
  if (!decoded.has_value()) {
    return nullptr;  // malformed logs are not cached (they carry no replay)
  }
  BootReplay replay;
  replay.log = std::move(*decoded);
  for (const tpm::MeasurementEvent& event : replay.log.events()) {
    auto& pcr = replay.pcrs[static_cast<size_t>(event.pcr_index)];
    pcr = tpm::ExtendDigest(pcr, event.measurement);
  }
  ++boot_log_cache_misses_;
  obs::Count(sim_, "keylime.boot_log_cache_miss");
  return &boot_log_cache_.emplace(key, std::move(replay)).first->second;
}

sim::Task Verifier::VerifyNodeImpl(const std::string& name,
                                   VerificationResult* result) {
  result->passed = false;
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    result->failure = kUnknownNode;
    co_return;
  }
  const std::shared_ptr<NodeState> state = it->second;
  ++verifications_;

  QuoteExchange exchange;
  co_await FetchQuote(name, *state, &exchange);
  if (!exchange.failure.empty()) {
    result->failure = std::move(exchange.failure);
    co_return;
  }
  // 3a (signature): the single-node path verifies inline; VerifyFleet
  // replaces exactly this step with the batched multi-scalar check.
  const bool signature_ok =
      tpm::Tpm::VerifyQuote(*exchange.quote, *state->aik_prepared);
  co_await FinishVerification(*state, exchange, signature_ok, result);
}

sim::Task Verifier::FetchQuote(const std::string& name, NodeState& state,
                               QuoteExchange* out) {
  // 1. Certified keys from the registrar.
  net::Message key_request;
  key_request.kind = std::string(kRpcGetKeys);
  key_request.payload = crypto::WireWriter().Str(name).Take();
  net::Message key_response;
  bool rpc_ok = false;
  co_await node_.CallWithRetry(registrar_, std::move(key_request), &key_response,
                               &rpc_ok, call_options_);
  if (state.removed) {
    out->failure = kUnknownNode;
    co_return;
  }
  if (!rpc_ok || key_response.kind == "kl.reg.error") {
    out->failure = "registrar lookup failed";
    co_return;
  }
  crypto::WireReader key_reader(key_response.payload);
  key_reader.Blob();  // EK (checked by the tenant against HIL metadata)
  const crypto::Bytes aik_wire = key_reader.Blob();
  const crypto::Bytes nk_wire = key_reader.Blob();
  const bool activated = key_reader.U32() == 1;
  if (!key_reader.AtEnd()) {
    out->failure = "malformed registrar response";
    co_return;
  }
  // Decode + curve-check + table build happen once per distinct wire
  // encoding; steady-state polling reuses the prepared AIK.
  if (state.aik_prepared == nullptr || state.aik_wire != aik_wire) {
    const auto aik = ParsePointUnchecked(aik_wire);
    auto prepared = aik ? crypto::P256::Instance().Prepare(*aik) : std::nullopt;
    state.aik_prepared =
        prepared ? std::make_shared<const crypto::P256::PreparedKey>(
                       std::move(*prepared))
                 : nullptr;
    state.aik_wire = aik_wire;
    ++aik_cache_misses_;
    obs::Count(sim_, "keylime.aik_cache_miss");
  } else {
    ++aik_cache_hits_;
    obs::Count(sim_, "keylime.aik_cache_hit");
  }
  if (!state.nk_decoded.has_value() || state.nk_wire != nk_wire) {
    state.nk_decoded = crypto::EcPoint::Decode(nk_wire);
    state.nk_wire = nk_wire;
  }
  if (state.aik_prepared == nullptr || !state.nk_decoded.has_value()) {
    out->failure = "malformed registrar response";
    co_return;
  }
  if (!activated) {
    out->failure = "AIK not activated";
    co_return;
  }

  // 2. Fresh nonce, quote request.  The request carries the incremental
  // cursor so the agent only ships new IMA measurements.
  out->nonce = drbg_.Generate(20);
  net::Message quote_request;
  quote_request.kind = std::string(kRpcQuote);
  quote_request.payload = crypto::WireWriter()
                              .Blob(out->nonce)
                              .U32(kQuotePcrMask)
                              .U64(state.ima_seen)
                              .Take();
  net::Message quote_response;
  co_await node_.CallWithRetry(state.config.agent, std::move(quote_request),
                               &quote_response, &rpc_ok, call_options_);
  if (state.removed) {
    out->failure = kUnknownNode;
    co_return;
  }
  if (!rpc_ok || quote_response.kind == "kl.agent.error") {
    out->failure = "agent unreachable";
    co_return;
  }
  crypto::WireReader reader(quote_response.payload);
  out->quote = tpm::Quote::Deserialize(reader.Blob());
  out->boot = ReplayBootLog(reader.Blob());
  out->ima_total = reader.U64();
  out->ima_log = tpm::EventLog::Deserialize(reader.Blob());
  if (!reader.AtEnd() || !out->quote || out->boot == nullptr || !out->ima_log) {
    out->failure = "malformed quote response";
    co_return;
  }
  if (out->boot->log.events().empty()) {
    // A freshly power-cycled TPM has all-zero PCRs, and an empty boot log
    // replays to exactly those values — so without this check a crashed,
    // unbooted machine would sail through replay and (vacuously) through
    // the whitelist.  A measured boot always logs at least the firmware.
    out->failure = "empty boot event log";
    co_return;
  }
  if (out->ima_total < state.ima_seen) {
    // The measurement list can only grow within one boot; a shrink means
    // the node rebooted out from under continuous attestation.
    out->failure = "IMA measurement list regressed (unexpected reboot?)";
    co_return;
  }
  if (out->ima_log->size() != out->ima_total - state.ima_seen) {
    out->failure = "IMA delta is inconsistent with the advertised total";
    co_return;
  }
}

sim::Task Verifier::FinishVerification(NodeState& state, QuoteExchange& ex,
                                       bool signature_ok,
                                       VerificationResult* result) {
  // A fleet round suspends between a node's quote and this stage.
  if (state.removed) {
    result->failure = kUnknownNode;
    co_return;
  }
  // 3a. Signature (verdict computed by the caller — inline single verify
  // or the batched multi-scalar check) and freshness.
  const tpm::Quote& quote = *ex.quote;
  if (!signature_ok) {
    result->failure = "quote signature invalid";
    co_return;
  }
  if (quote.nonce != ex.nonce) {
    result->failure = "stale quote (nonce mismatch)";
    co_return;
  }
  if (quote.pcr_mask != kQuotePcrMask) {
    result->failure = "wrong PCR selection";
    co_return;
  }

  // 3b. Log replay must reproduce the quoted PCR values exactly.  The
  // boot-log replay comes precomputed from the golden-log cache; the IMA
  // PCR continues from the validated prefix's value.
  std::array<crypto::Digest, tpm::kNumPcrs> replayed = ex.boot->pcrs;
  crypto::Digest ima_pcr = state.ima_pcr;
  for (const tpm::MeasurementEvent& event : ex.ima_log->events()) {
    if (event.pcr_index != tpm::kPcrIma) {
      result->failure = "IMA delta contains a non-IMA event";
      co_return;
    }
    ima_pcr = tpm::ExtendDigest(ima_pcr, event.measurement);
  }
  replayed[static_cast<size_t>(tpm::kPcrIma)] = ima_pcr;
  for (int pcr = 0; pcr < tpm::kNumPcrs; ++pcr) {
    const crypto::Digest* quoted = QuotedPcr(quote, pcr);
    if (quoted != nullptr && *quoted != replayed[static_cast<size_t>(pcr)]) {
      result->failure = "event log does not match quoted PCR " + std::to_string(pcr);
      co_return;
    }
  }

  // 3c. Whitelist checks.
  if (state.config.whitelist == nullptr) {
    result->failure = "no whitelist configured";
    co_return;
  }
  for (const tpm::MeasurementEvent& event : ex.boot->log.events()) {
    if (!state.config.whitelist->boot.contains(event.measurement)) {
      result->failure = "unwhitelisted boot measurement: " + event.description;
      co_return;
    }
  }
  for (const tpm::MeasurementEvent& event : ex.ima_log->events()) {
    if (!state.config.whitelist->runtime.contains(event.measurement)) {
      result->failure = "unwhitelisted runtime file: " + event.description;
      co_return;
    }
  }

  // 4. Bootstrap delivery on first success.
  if (!state.payload_delivered && !state.config.v_half.empty()) {
    bool delivered = false;
    co_await DeliverPayload(state, &delivered);
    if (state.removed) {
      result->failure = kUnknownNode;
      co_return;
    }
    if (!delivered) {
      result->failure = "payload delivery failed";
      co_return;
    }
  }
  // Commit the incremental cursor only after full success so a failed
  // verification never advances past unvalidated measurements.
  state.ima_seen = ex.ima_total;
  state.ima_pcr = ima_pcr;
  result->passed = true;
}

// One fleet round's signature stage (DESIGN.md §11).  Quotes join the one
// open batch in arrival order, which the simulation fixes, and a full batch
// is verified on the Simulation's worker pool while the round's exchanges
// go on (inline without a pool).  Nothing here schedules an event or
// touches obs, so batch size, worker count and host timing cannot reach
// verdicts or digests.
struct Verifier::FleetRound {
  // A batch task's inputs and result slots.  The task shares ownership,
  // so a round destroyed mid-flight leaves a worker nothing dangling.
  struct Batch {
    std::vector<size_t> nodes;  // round indices, in arrival order
    std::vector<tpm::Quote> quotes;
    std::vector<std::shared_ptr<const crypto::P256::PreparedKey>> aiks;
    std::unique_ptr<bool[]> ok;
    crypto::P256::BatchStats stats{};

    void Verify() {
      std::vector<tpm::Tpm::QuoteBatchEntry> entries(quotes.size());
      for (size_t k = 0; k < quotes.size(); ++k) {
        entries[k] = {&quotes[k], aiks[k].get()};
      }
      ok.reset(new bool[quotes.size()]());
      tpm::Tpm::VerifyQuoteBatch(entries, ok.get(), &stats);
    }
  };

  FleetRound(sim::WorkerPool* pool, size_t batch_size)
      : pool(pool), batch_size(batch_size) {}

  void Land(size_t node, const tpm::Quote& quote,
            std::shared_ptr<const crypto::P256::PreparedKey> aik) {
    if (open == nullptr) {
      open = std::make_shared<Batch>();
    }
    open->nodes.push_back(node);
    open->quotes.push_back(quote);
    open->aiks.push_back(std::move(aik));
    if (open->nodes.size() == batch_size) {
      Flush();
    }
  }

  void Flush() {
    std::shared_ptr<Batch> batch = std::move(open);
    batches.push_back(batch);
    if (pool == nullptr) {
      batch->Verify();
      return;
    }
    tickets.push_back(pool->Submit([batch] { batch->Verify(); }));
  }

  // Submits the partial batch and waits for every batch.
  void Join() {
    if (open != nullptr) {
      Flush();
    }
    // Newest first: the workers take the oldest queued task, so once this
    // reaches a task some worker is running, every older one is claimed
    // too, and the caller never sleeps while a batch sits in the queue.
    for (auto it = tickets.rbegin(); it != tickets.rend(); ++it) {
      sim::WorkerPool::Wait(*it);
    }
  }

  sim::WorkerPool* pool;
  size_t batch_size;
  std::shared_ptr<Batch> open;
  std::vector<std::shared_ptr<Batch>> batches;  // in submission order
  std::vector<sim::WorkerPool::Ticket> tickets;
};

sim::Task Verifier::FetchIntoRound(const std::string& name, NodeState& state,
                                   QuoteExchange* out, FleetRound* round,
                                   size_t index) {
  co_await FetchQuote(name, state, out);
  if (out->failure.empty()) {
    round->Land(index, *out->quote, state.aik_prepared);
  }
}

sim::Task Verifier::VerifyFleet(std::span<const std::string> names,
                                VerificationResult* results) {
  const size_t n = names.size();
  // The pool is rebuilt only when `workers` changes, so steady polling pays
  // no thread spawn or join.  The agents' quotes are signed on it too.
  const int workers = std::max(1, fleet_options_.workers);
  sim_.SetWorkerThreads(static_cast<uint32_t>(workers));
  FleetRound round(sim_.worker_pool(),
                   static_cast<size_t>(std::max(1, fleet_options_.batch_size)));
  std::vector<QuoteExchange> exchanges(n);
  std::vector<std::shared_ptr<NodeState>> states(n);
  sim::TaskGroup group(sim_);
  for (size_t i = 0; i < n; ++i) {
    results[i] = VerificationResult{};
    const auto it = nodes_.find(names[i]);
    if (it == nodes_.end()) {
      exchanges[i].failure = kUnknownNode;
      continue;
    }
    states[i] = it->second;
    ++verifications_;
    group.Spawn(FetchIntoRound(names[i], *states[i], &exchanges[i], &round, i));
  }
  co_await group.WaitAll();
  round.Join();

  // Bookkeeping in submission order (obs must not be touched from the
  // worker threads).
  std::vector<uint8_t> signature_ok(n, 0);
  uint64_t bisections = 0;
  for (const std::shared_ptr<FleetRound::Batch>& batch : round.batches) {
    batched_verifications_ += batch->nodes.size();
    bisections += batch->stats.bisections;
    batch_stats_.bisections += batch->stats.bisections;
    batch_stats_.sqrt_recoveries += batch->stats.sqrt_recoveries;
    batch_stats_.rejected_hints += batch->stats.rejected_hints;
    obs::Record(sim_, "keylime.batch_size", batch->nodes.size());
    for (size_t k = 0; k < batch->nodes.size(); ++k) {
      signature_ok[batch->nodes[k]] = batch->ok[k] ? 1 : 0;
    }
  }
  if (bisections != 0) {
    obs::Count(sim_, "keylime.batch_bisections", bisections);
  }

  // Merge verdicts back in submission order; each node's post-signature
  // pipeline runs exactly as the single-node path would.
  for (size_t i = 0; i < n; ++i) {
    if (!exchanges[i].failure.empty()) {
      results[i].failure = std::move(exchanges[i].failure);
      continue;
    }
    co_await FinishVerification(*states[i], exchanges[i], signature_ok[i] != 0,
                                &results[i]);
  }
}

void Verifier::StartContinuous(const std::string& name, sim::Duration interval) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end() || it->second->polled) {
    return;
  }
  it->second->polled = true;
  sim_.Spawn(ContinuousLoop(name, it->second, interval));
}

sim::Task Verifier::ContinuousLoop(std::string name,
                                   std::shared_ptr<NodeState> state,
                                   sim::Duration interval) {
  sim::Duration wait = interval;
  for (;;) {
    co_await sim::Delay(sim_, wait);
    if (state->removed) {
      co_return;
    }
    VerificationResult result;
    co_await VerifyNode(name, &result);
    // VerifyNode suspends, so re-check that the node is still registered
    // before acting on the verdict.
    if (state->removed) {
      co_return;
    }
    if (result.passed) {
      state->transient_strikes = 0;
      wait = interval;
      continue;
    }
    if (IsTransientFailure(result.failure) &&
        ++state->transient_strikes < kMaxTransientStrikes) {
      // Escalation ladder: a quote timeout earns a fast re-poll (the node
      // may be mid-reboot or behind a flapping link), not an instant
      // quarantine.  Strikes accumulate until a pass resets them.
      ++transient_retries_;
      obs::Count(sim_, "keylime.transient_retries");
      wait = interval.Scaled(0.25);
      continue;
    }
    ++violations_;
    obs::Count(sim_, "keylime.violations");
    obs::Instant(sim_, "keylime.violation", "keylime", "verify:" + name,
                 {{"node", name}, {"reason", result.failure}});
    co_await Revoke(state->config);
    if (violation_callback_) {
      violation_callback_(name, result.failure);
    }
    co_return;
  }
}

sim::Task Verifier::Revoke(const NodeConfig& config) {
  if (config.peers == nullptr) {
    co_return;
  }
  // Copied at entry: the tenant edits the list as members come and go.
  const std::vector<net::Address> peers = *config.peers;
  // Notify every enclave peer concurrently; each drops the bad node's SA.
  sim::TaskGroup group(sim_);
  for (const net::Address peer : peers) {
    if (peer != config.agent) {
      group.Spawn(NotifyRevocation(peer, config.agent));
    }
  }
  co_await group.WaitAll();
}

sim::Task Verifier::NotifyRevocation(net::Address peer, net::Address bad) {
  net::Message message;
  message.kind = std::string(kRpcRevoke);
  message.payload = crypto::WireWriter().U32(bad).Take();
  net::Message response;
  bool ok = false;
  co_await node_.Call(peer, std::move(message), &response, &ok,
                      sim::Duration::Seconds(5));
}

}  // namespace bolted::keylime
