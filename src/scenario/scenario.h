// Declarative scenario engine: long-horizon multi-tenant lifecycle runs
// (DESIGN.md §13).
//
// A ScenarioSpec declares, in data, everything a lifecycle run needs:
// tenant arrival processes (fixed / Poisson / burst), tenant sizes and
// security tiers, run duration, a fault mix (delegating to faults::
// FaultProfile, or an explicit plan), and a schedule of lifecycle phases —
// provision/release churn, a mass-reboot attestation storm, a rolling
// firmware upgrade with staged canaries and rollback-on-failed-attest, a
// compromise-detection sweep that quarantines and re-provisions, and
// elastic airlock resizing under load.
//
// Specs come from a small line-oriented text format (examples/scenarios/)
// or are aggregates built with designated initializers.  The full-fidelity
// single-Simulation runner (src/scenario/runner.h) turns a spec into a
// seed-replayable run that asserts the chaos invariants (a)-(e); the
// chaos sweep is one such spec per seed.  The rack-sharded fleet model
// (src/scenario/sharded.h) takes its own ShardedScenarioConfig instead of
// a spec.

#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/faults/faults.h"
#include "src/sim/time.h"

namespace bolted::scenario {

// Security tiers mirror §4.3's personas (core::TrustProfile).
enum class Tier { kAlice, kBob, kCharlie };

struct TenantSpec {
  std::string name;
  Tier tier = Tier::kCharlie;
  int nodes = 1;
};

enum class ArrivalKind { kFixed, kPoisson, kBurst };

// How tenant nodes (and churn operations) arrive over time.
struct ArrivalProcess {
  ArrivalKind kind = ArrivalKind::kFixed;
  sim::Duration fixed_spacing = sim::Duration::Seconds(5);  // kFixed
  double rate_per_minute = 6.0;                             // kPoisson
  int burst_size = 4;                                       // kBurst
  sim::Duration burst_interval = sim::Duration::Seconds(60);
};

enum class PhaseKind {
  kChurn,            // continuous provision/release loops
  kRebootStorm,      // mass reboot -> attestation storm
  kRollingUpgrade,   // staged firmware canaries, rollback on failed attest
  kQuarantineSweep,  // compromise detection -> quarantine -> re-provision
  kAirlockResize,    // elastic airlock capacity change under load
};

struct PhaseSpec {
  PhaseKind kind = PhaseKind::kChurn;
  sim::Duration start{};     // offset from scenario start
  sim::Duration duration{};  // zero for one-shot phases
  // Phase-specific knobs (only the relevant ones are read):
  sim::Duration hold = sim::Duration::Seconds(120);  // churn: mean hold time
  double release_fraction = 0.5;   // churn: P(release | node allocated)
  double storm_fraction = 1.0;     // reboot_storm: fraction rebooted
  int canaries = 1;                // rolling_upgrade: staged first wave
  bool bad_image = false;          // rolling_upgrade: flash a compromised
                                   // image (whitelist still expects the
                                   // clean build) -> canaries must fail
                                   // attestation and trigger rollback
  double compromise_fraction = 0.5;  // quarantine_sweep: fraction implanted
  int airlock_slots = 0;           // airlock_resize: new capacity
};

enum class FaultMode {
  kOff,   // healthy fabric
  kOn,    // seed-derived FaultPlan::Generate from `fault_profile`
  kPlan,  // only the spec's explicit crash/flap events fire
};

struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = 1;
  sim::Duration duration = sim::Duration::Minutes(10);
  int machines = 4;
  int airlock_slots = 4;
  // Fleet calibration (32 MiB boot image) keeps long-horizon runs cheap;
  // `calibration paper` restores the full Fig-4 boot volume.
  bool fleet_calibration = true;

  std::vector<TenantSpec> tenants;
  ArrivalProcess arrival;

  FaultMode faults = FaultMode::kOff;
  faults::FaultProfile fault_profile;
  // Explicit events (FaultMode::kPlan, or appended to the generated plan
  // when kOn).  Targets index the cloud's machines.
  std::vector<faults::CrashEvent> crashes;
  std::vector<faults::LinkFlapEvent> flaps;

  std::vector<PhaseSpec> phases;

  // Parses the text format.  On failure returns false and sets *error to
  // an exact, stable message ("line N: ..." for syntax, plain for
  // semantic validation) — tests assert these strings verbatim.
  static bool Parse(std::string_view text, ScenarioSpec* spec,
                    std::string* error);

  // Semantic validation (also run by Parse).  Empty string when valid.
  std::string Validate() const;

  int total_tenant_nodes() const;
};

// "churn" -> PhaseKind::kChurn etc.; the canonical names the text format
// and the obs phase spans share.
std::string_view PhaseName(PhaseKind kind);

}  // namespace bolted::scenario

#endif  // SRC_SCENARIO_SCENARIO_H_
