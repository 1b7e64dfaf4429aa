// Keylime cloud verifier (CV): checks server integrity against tenant
// whitelists and runs continuous attestation (§5, §7.4).
//
// For each node the tenant registers, the verifier:
//   1. fetches the certified AIK (and agent NK) from the registrar,
//   2. sends a fresh nonce, receives a signed quote plus the boot event
//      log and IMA runtime measurement list,
//   3. verifies the signature, the nonce, that replaying the logs yields
//      exactly the quoted PCR values, and that every measurement is
//      whitelisted,
//   4. on first success, delivers the V key half and the sealed tenant
//      payload to the agent,
//   5. in continuous mode, repeats on an interval; a failure triggers the
//      revocation flow: every enclave peer is told to drop the
//      compromised node's IPsec SA, and the tenant callback fires.

#ifndef SRC_KEYLIME_VERIFIER_H_
#define SRC_KEYLIME_VERIFIER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/crypto/p256.h"
#include "src/keylime/payload.h"
#include "src/keylime/registrar.h"
#include "src/net/rpc.h"
#include "src/tpm/event_log.h"
#include "src/tpm/tpm.h"

namespace bolted::keylime {

struct Whitelist {
  std::set<crypto::Digest> boot;     // allowed boot-chain measurements
  std::set<crypto::Digest> runtime;  // allowed IMA template digests

  void AllowBoot(const crypto::Digest& digest) { boot.insert(digest); }
  void AllowRuntime(const crypto::Digest& digest) { runtime.insert(digest); }
};

struct VerificationResult {
  bool passed = false;
  std::string failure;  // empty when passed
};

// Classifies a VerificationResult failure string: transient failures
// (unreachable peers, lost RPCs) deserve a re-poll before quarantining the
// node; integrity failures (bad signature, log mismatch, unwhitelisted
// measurement) never do — the evidence is cryptographic, not circumstantial.
bool IsTransientFailure(std::string_view failure);

class Verifier {
 public:
  Verifier(sim::Simulation& sim, net::Endpoint& endpoint, net::Address registrar,
           uint64_t seed);

  net::Address address() const { return node_.address(); }

  struct NodeConfig {
    net::Address agent = 0;
    // Shared with the tenant, who may extend it at run time (application
    // rollout) — mirrors Keylime's tenant-pushed whitelist updates.
    std::shared_ptr<const Whitelist> whitelist;
    // Bootstrap delivery material (empty when the tenant handles its own
    // payload, e.g. attestation-only profiles).
    crypto::Bytes v_half;
    crypto::Bytes sealed_payload;
    // Enclave peers to notify on revocation.
    std::vector<net::Address> peers;
  };

  void AddNode(const std::string& name, NodeConfig config);
  void RemoveNode(const std::string& name);
  bool HasNode(const std::string& name) const { return nodes_.contains(name); }
  void UpdatePeers(const std::string& name, std::vector<net::Address> peers);

  // RPC policy for registrar lookups and quote requests.  The default
  // resends once after a 10 s timeout — enough to ride out a dropped frame
  // without masking a genuinely dead agent from the escalation logic.
  void SetCallOptions(net::CallOptions options) { call_options_ = options; }

  // One-shot attestation; delivers the payload on first success.  With an
  // obs::Registry attached, each round is a "keylime.verify" span on the
  // node's track plus pass/fail counters.
  sim::Task VerifyNode(const std::string& name, VerificationResult* result);

  // Fleet poll-round knobs.  Both are HOST-SIDE only: they change how much
  // CPU the signature checks cost, never the simulation's event sequence,
  // so verdicts and trace digests are byte-identical across any batch size
  // and worker count (the single-threaded oracle is workers = 1).
  struct FleetOptions {
    // Threads, the caller included, of the Simulation's worker pool, which
    // signs the agents' quotes and verifies the shards' batches; 1 means
    // no pool.
    int workers = 1;
    int batch_size = 64; // quotes per VerifyQuoteBatch call within a shard
  };
  void SetFleetOptions(const FleetOptions& options) { fleet_options_ = options; }

  // One poll round over the whole fleet: fans the nonce/quote exchanges out
  // concurrently, adds each quote as it lands to its shard's batch (sharded
  // by node id), verifies every full batch through Tpm::VerifyQuoteBatch on
  // the Simulation's worker pool while the exchanges go on, and completes
  // each node's replay/whitelist pipeline in submission order.  results[i]
  // is exactly what VerifyNode(names[i], ...) would produce.
  sim::Task VerifyFleet(std::span<const std::string> names,
                        VerificationResult* results);

  // Continuous attestation loop.  Stops on violation (after running the
  // revocation flow) or StopContinuous().
  void StartContinuous(const std::string& name, sim::Duration interval);
  void StopContinuous(const std::string& name);

  using ViolationCallback =
      std::function<void(const std::string& node, const std::string& reason)>;
  void SetViolationCallback(ViolationCallback callback) {
    violation_callback_ = std::move(callback);
  }

  uint64_t verifications() const { return verifications_; }
  uint64_t violations() const { return violations_; }
  // Transient failures the continuous loop absorbed with a fast re-poll
  // instead of quarantining.
  uint64_t transient_retries() const { return transient_retries_; }
  // Prepared-AIK cache effectiveness: in steady-state polling every
  // verification after a node's first should hit.
  uint64_t aik_cache_hits() const { return aik_cache_hits_; }
  uint64_t aik_cache_misses() const { return aik_cache_misses_; }
  // Quotes whose signatures went through the batched multi-scalar path.
  uint64_t batched_verifications() const { return batched_verifications_; }
  // Cumulative VerifyBatch statistics across all fleet rounds.
  const crypto::P256::BatchStats& batch_stats() const { return batch_stats_; }
  // Golden boot-log cache (decode + replay once per distinct log).
  uint64_t boot_log_cache_hits() const { return boot_log_cache_hits_; }
  uint64_t boot_log_cache_misses() const { return boot_log_cache_misses_; }

 private:
  struct NodeState {
    NodeConfig config;
    bool payload_delivered = false;
    bool continuous = false;
    uint64_t generation = 0;  // bumps on StopContinuous to kill old loops
    // Incremental-attestation cursor: how much of the node's IMA
    // measurement list has been validated, and the PCR-10 value that
    // prefix replays to.  Only the suffix travels on each quote.
    uint64_t ima_seen = 0;
    crypto::Digest ima_pcr{};
    // Consecutive transient-failure count (continuous mode); resets on any
    // pass.
    int transient_strikes = 0;
    // Decoded-key cache, keyed on the registrar's wire encodings: the AIK
    // is decoded, curve-checked, and equipped with verify tables once, not
    // on every poll.  A changed encoding (re-registration) misses and
    // rebuilds.  The prepared AIK is shared, so a batch task keeps the key
    // it checks even if the node is re-keyed while the task runs.
    crypto::Bytes aik_wire;
    std::shared_ptr<const crypto::P256::PreparedKey> aik_prepared;
    crypto::Bytes nk_wire;
    std::optional<crypto::EcPoint> nk_decoded;
  };

  // A boot event log decoded and replayed exactly once per distinct wire
  // encoding (the whole fleet boots the same golden firmware, so steady
  // rounds hit this cache 4096 times per decode).  Entries are immutable
  // and pointer-stable once inserted.
  struct BootReplay {
    tpm::EventLog log;
    std::array<crypto::Digest, tpm::kNumPcrs> pcrs{};
  };

  // Everything a node's quote exchange produced ahead of the signature
  // check: either an early failure (exact VerifyNode failure string) or
  // the parsed quote plus decoded logs.
  struct QuoteExchange {
    std::string failure;  // nonempty = failed before the signature stage
    std::optional<tpm::Quote> quote;
    const BootReplay* boot = nullptr;
    std::optional<tpm::EventLog> ima_log;
    uint64_t ima_total = 0;
    crypto::Bytes nonce;
  };

  sim::Task VerifyNodeImpl(const std::string& name, VerificationResult* result);
  sim::Task VerifyNodeTraced(const std::string& name, VerificationResult* result);
  // Stage A: registrar keys, nonce, quote RPC, parsing, and every check
  // that precedes the signature verification, in VerifyNode's order.
  sim::Task FetchQuote(const std::string& name, NodeState& state,
                       QuoteExchange* out);
  // A fleet round's batching state (verifier.cc).
  struct FleetRound;
  // Stage A for one node of a fleet round; a quote that passes it joins
  // its shard's batch the moment it lands.
  sim::Task FetchIntoRound(const std::string& name, NodeState& state,
                           QuoteExchange* out, FleetRound* round, size_t index);
  // Stage B: everything after the signature verdict — freshness, replay,
  // whitelists, payload delivery, cursor commit.
  sim::Task FinishVerification(const std::string& name, NodeState& state,
                               QuoteExchange& ex, bool signature_ok,
                               VerificationResult* result);
  const BootReplay* ReplayBootLog(const crypto::Bytes& wire);
  sim::Task ContinuousLoop(std::string name, sim::Duration interval,
                           uint64_t generation);
  sim::Task Revoke(const std::string& name);
  sim::Task NotifyRevocation(net::Address peer, net::Address bad);
  sim::Task DeliverPayload(const std::string& name, const crypto::EcPoint& nk,
                           bool* ok);

  sim::Simulation& sim_;
  net::RpcNode node_;
  net::Address registrar_;
  crypto::Drbg drbg_;
  std::map<std::string, NodeState> nodes_;
  ViolationCallback violation_callback_;
  net::CallOptions call_options_{.timeout = sim::Duration::Seconds(10),
                                 .max_attempts = 2};
  FleetOptions fleet_options_;
  // Keyed on SHA-256 of the log's wire bytes; std::map keeps entries
  // pointer-stable for the QuoteExchange references.  Bounded by the number
  // of distinct firmware images the fleet runs, not by fleet size.
  std::map<crypto::Digest, BootReplay> boot_log_cache_;
  uint64_t verifications_ = 0;
  uint64_t violations_ = 0;
  uint64_t transient_retries_ = 0;
  uint64_t aik_cache_hits_ = 0;
  uint64_t aik_cache_misses_ = 0;
  uint64_t batched_verifications_ = 0;
  crypto::P256::BatchStats batch_stats_{};
  uint64_t boot_log_cache_hits_ = 0;
  uint64_t boot_log_cache_misses_ = 0;
};

}  // namespace bolted::keylime

#endif  // SRC_KEYLIME_VERIFIER_H_
