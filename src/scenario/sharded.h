// Rack-sharded scenario model (DESIGN.md §13).
//
// The full-fidelity runner (runner.h) drives a real core::Cloud, which
// owns a single Simulation — it cannot span racks.  This model runs the
// same kinds of lifecycle phase as an abstracted state machine on
// sim::ShardedFleet, configured through ShardedScenarioConfig rather than
// a ScenarioSpec, so mixed long-horizon scenarios scale to thousands of
// nodes and the determinism contract extends to them:
// per-rack trace digests and the final per-node verdict vector are
// byte-identical for every (shards, workers) configuration, with
// shards=1/workers=1 as the single-threaded oracle.
//
// The abstraction keeps the control-plane shape and drops the crypto:
// each node is a small state machine (free -> provisioning -> allocated
// -> quarantined) whose provisioning ends in an attestation quote — a
// cross-rack frame to the verifier on rack 0 carrying (node, generation,
// tenant, measurement) — answered by a verdict frame checked against an
// immutable measurement whitelist.  Rolling upgrades run rack-0 canaries
// first and broadcast go/abort frames; compromises flip a node's
// reported measurement so the next continuous quote quarantines it.
//
// Thread discipline (the shard.h contract): all mutable state is indexed
// by rack and touched only from that rack's events or frame handler;
// cross-rack influence travels exclusively through frames.

#ifndef SRC_SCENARIO_SHARDED_H_
#define SRC_SCENARIO_SHARDED_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bolted::scenario {

// All times are simulated nanoseconds from t=0; a phase time of 0 turns
// that phase off.
struct ShardedScenarioConfig {
  uint32_t racks = 16;
  uint32_t nodes_per_rack = 64;
  uint32_t shards = 1;
  uint32_t workers = 1;
  uint64_t seed = 1;
  uint32_t tenants = 2;  // node i belongs to tenant i % tenants

  int64_t arrival_spacing_ns = 10'000'000;     // per-node provision stagger
  int64_t provision_mean_ns = 3'000'000'000;   // boot + quote prep
  int64_t attest_interval_ns = 2'000'000'000;  // continuous attestation
  // The scenario horizon: continuous attestation and churn stop here and
  // the run drains, so in-flight lifecycles complete.
  int64_t horizon_ns = 60'000'000'000;

  int64_t churn_start_ns = 0;
  int64_t churn_end_ns = 0;
  int64_t churn_hold_ns = 10'000'000'000;
  double churn_release_fraction = 0.5;

  int64_t storm_at_ns = 0;
  double storm_fraction = 1.0;

  int64_t upgrade_at_ns = 0;
  uint32_t canaries = 4;  // rack-0 nodes upgraded first
  bool bad_image = false;

  int64_t sweep_at_ns = 0;
  double compromise_fraction = 0.25;
};

struct ShardedScenarioResult {
  // Invariant violations merged from every rack (rack order, then
  // detection order).  Empty == the run held every in-run invariant and
  // the final convergence check.
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }

  // THE determinism artifacts: must match across every (shards, workers)
  // configuration and across replays of the same config.
  uint64_t fleet_digest = 0;
  std::vector<uint64_t> rack_digests;
  // Final node states in global node order (values of core::NodeState
  // cast to uint8_t) and the firmware each node ended on.
  std::vector<uint8_t> final_states;
  std::vector<uint32_t> final_firmware;

  uint64_t events = 0;
  uint64_t frames_routed = 0;
  uint64_t windows = 0;
  uint64_t rack_runs = 0;  // sim::ShardedFleet::rack_runs()
  uint64_t spills = 0;  // always 0: mailboxes never spill (fleetbench reads it)
  int64_t final_time_ns = 0;

  uint64_t provisions = 0;
  uint64_t quotes = 0;
  uint64_t churn_cycles = 0;
  uint64_t storm_reboots = 0;
  uint64_t upgrades = 0;
  uint64_t rollbacks = 0;
  uint64_t compromises = 0;
  uint64_t quarantines = 0;

  // Sim-time phase latencies (nanoseconds), fleet-wide.
  uint64_t provision_latency_count = 0;
  uint64_t provision_latency_sum_ns = 0;
  uint64_t provision_latency_max_ns = 0;
  uint64_t attest_latency_count = 0;
  uint64_t attest_latency_sum_ns = 0;
  uint64_t attest_latency_max_ns = 0;
};

ShardedScenarioResult RunShardedScenario(const ShardedScenarioConfig& config);

}  // namespace bolted::scenario

#endif  // SRC_SCENARIO_SHARDED_H_
