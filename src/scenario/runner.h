// Full-fidelity scenario runner (DESIGN.md §13).
//
// Turns a ScenarioSpec into one long-horizon run against a real
// core::Cloud — real enclaves, real Keylime, real fault injection — and
// asserts the chaos invariants (DESIGN.md §8), stated only here, while the
// lifecycle phases fire:
//
//   (a) isolation:   the provider sniffer sees no cross-enclave frame;
//   (b) convergence: after the run quiesces every node is allocated and
//                    passing attestation;
//   (c) clean abort: every failed provision left no residue (reason
//                    recorded, node in the rejected pool, deregistered,
//                    no root device) and the node re-provisions cleanly;
//   (d) replayable:  ScenarioResult.digest is a pure function of the spec
//                    (callers replay and compare byte-for-byte);
//   (e) observable:  with faults, every planned fault is one obs instant
//                    at its planned time, and the registry's counters
//                    match the injector, fabric and verifiers (BOLTED_OBS).
//
// The chaos sweep (tests/chaos_test.cc) is one fixed spec per seed.  The
// rack-sharded scenario model (sharded.h) must match the runner's phase
// semantics; tests compare its verdicts and digests across replays.

#ifndef SRC_SCENARIO_RUNNER_H_
#define SRC_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/enclave.h"
#include "src/scenario/scenario.h"

namespace bolted::scenario {

// What actually happened, phase by phase — the non-vacuousness witnesses
// (a scenario whose quarantine sweep never quarantined anything is a bug
// in the scenario, not a pass).
struct ScenarioStats {
  uint64_t provisions = 0;
  uint64_t provision_failures = 0;
  uint64_t releases = 0;
  uint64_t churn_cycles = 0;
  uint64_t storm_reboots = 0;
  uint64_t upgrades = 0;
  uint64_t rollbacks = 0;
  uint64_t compromises = 0;
  uint64_t quarantines = 0;
  uint64_t airlock_resizes = 0;
  uint64_t faults_fired = 0;
};

struct ScenarioResult {
  // Invariant violations in detection order; empty == every chaos
  // invariant held for the whole run.
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }

  // Whole-cloud event-trace digest — the replay invariant.  Two runs of
  // the same spec must agree byte-for-byte.
  uint64_t digest = 0;
  // Final verdict per node, in cloud machine order: the convergence
  // vector replays (and the sharded model) are compared against.
  std::vector<core::NodeState> final_states;

  ScenarioStats stats;
  sim::Duration sim_elapsed{};
};

// Runs the spec to completion on a freshly built cloud.  The spec must be
// valid (Parse/Validate); an invalid spec yields a single-failure result
// rather than a crash.
ScenarioResult RunScenario(const ScenarioSpec& spec);

}  // namespace bolted::scenario

#endif  // SRC_SCENARIO_RUNNER_H_
