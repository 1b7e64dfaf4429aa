// Scenario-engine suite (selected with `ctest -L scenario`).
//
// Covers the declarative spec layer (parse/validate round-trips and the
// exact, stable error strings), every lifecycle phase in isolation on the
// full-fidelity oracle runner, the crash-during-upgrade-window
// interleaving the chaos suite never reached (FaultMode::kPlan), the
// digest-replay and cross-scheduler invariants, and single-vs-sharded
// equivalence of the rack-sharded scenario model.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sharded.h"

namespace bolted::scenario {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing

TEST(ScenarioSpecTest, ParsesEveryDirective) {
  const char* text = R"(
# full-grammar exercise
scenario kitchen_sink
seed 99
duration 7m
machines 12          # trailing comment
airlock_slots 3
calibration paper

tenant alice   alice   4
tenant bob     bob     4
tenant charlie charlie 4

arrival burst 3 45s

faults plan
crash 2 90s
flap 7 100s 5s

phase churn            30s 120s hold=25s release=0.7
phase reboot_storm     200s fraction=0.8
phase rolling_upgrade  260s canaries=3 bad=1
phase quarantine_sweep 330s compromise=0.25
phase airlock_resize   360s slots=6
)";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::Parse(text, &spec, &error)) << error;
  EXPECT_EQ(spec.name, "kitchen_sink");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.duration, sim::Duration::Minutes(7));
  EXPECT_EQ(spec.machines, 12);
  EXPECT_EQ(spec.airlock_slots, 3);
  EXPECT_FALSE(spec.fleet_calibration);

  ASSERT_EQ(spec.tenants.size(), 3u);
  EXPECT_EQ(spec.tenants[0].name, "alice");
  EXPECT_EQ(spec.tenants[0].tier, Tier::kAlice);
  EXPECT_EQ(spec.tenants[1].tier, Tier::kBob);
  EXPECT_EQ(spec.tenants[2].tier, Tier::kCharlie);
  EXPECT_EQ(spec.total_tenant_nodes(), 12);

  EXPECT_EQ(spec.arrival.kind, ArrivalKind::kBurst);
  EXPECT_EQ(spec.arrival.burst_size, 3);
  EXPECT_EQ(spec.arrival.burst_interval, sim::Duration::Seconds(45));

  EXPECT_EQ(spec.faults, FaultMode::kPlan);
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_EQ(spec.crashes[0].target, 2u);
  EXPECT_EQ(spec.crashes[0].at, sim::Duration::Seconds(90));
  ASSERT_EQ(spec.flaps.size(), 1u);
  EXPECT_EQ(spec.flaps[0].target, 7u);
  EXPECT_EQ(spec.flaps[0].duration, sim::Duration::Seconds(5));

  ASSERT_EQ(spec.phases.size(), 5u);
  EXPECT_EQ(spec.phases[0].kind, PhaseKind::kChurn);
  EXPECT_EQ(spec.phases[0].start, sim::Duration::Seconds(30));
  EXPECT_EQ(spec.phases[0].duration, sim::Duration::Seconds(120));
  EXPECT_EQ(spec.phases[0].hold, sim::Duration::Seconds(25));
  EXPECT_DOUBLE_EQ(spec.phases[0].release_fraction, 0.7);
  EXPECT_EQ(spec.phases[1].kind, PhaseKind::kRebootStorm);
  EXPECT_DOUBLE_EQ(spec.phases[1].storm_fraction, 0.8);
  EXPECT_EQ(spec.phases[2].kind, PhaseKind::kRollingUpgrade);
  EXPECT_EQ(spec.phases[2].canaries, 3);
  EXPECT_TRUE(spec.phases[2].bad_image);
  EXPECT_EQ(spec.phases[3].kind, PhaseKind::kQuarantineSweep);
  EXPECT_DOUBLE_EQ(spec.phases[3].compromise_fraction, 0.25);
  EXPECT_EQ(spec.phases[4].kind, PhaseKind::kAirlockResize);
  EXPECT_EQ(spec.phases[4].airlock_slots, 6);
}

TEST(ScenarioSpecTest, ParsesArrivalKinds) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::Parse(
      "tenant t charlie 1\narrival fixed 250ms\n", &spec, &error))
      << error;
  EXPECT_EQ(spec.arrival.kind, ArrivalKind::kFixed);
  EXPECT_EQ(spec.arrival.fixed_spacing, sim::Duration::Milliseconds(250));

  ASSERT_TRUE(ScenarioSpec::Parse(
      "tenant t charlie 1\narrival poisson 12/min\n", &spec, &error))
      << error;
  EXPECT_EQ(spec.arrival.kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec.arrival.rate_per_minute, 12.0);
}

// The exact error strings are part of the spec-format contract: a tool
// that surfaces them to users must be able to rely on them verbatim.
TEST(ScenarioSpecTest, RejectsMalformedSpecsWithExactErrors) {
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"bogus 1\n", "line 1: unknown directive 'bogus'"},
      {"duration 5x\n",
       "line 1: duration '5x' must be an integer followed by ns, us, ms, s, "
       "or m"},
      {"seed minus-one\n", "line 1: seed must be a non-negative integer"},
      {"machines many\n", "line 1: machines must be a positive integer"},
      {"calibration magic\n", "line 1: calibration must be fleet or paper"},
      {"tenant a alice\n",
       "line 1: tenant expects: tenant <name> <tier> <nodes>"},
      {"tenant a dave 2\n",
       "line 1: tier 'dave' must be alice, bob, or charlie"},
      {"arrival poisson fast\n",
       "line 1: arrival poisson expects a rate like 6/min"},
      {"arrival burst 4\n",
       "line 1: arrival burst expects: arrival burst <size> <interval>"},
      {"arrival trickle 3s\n",
       "line 1: arrival kind 'trickle' must be fixed, poisson, or burst"},
      {"faults maybe\n", "line 1: faults must be on, off, or plan"},
      {"crash 0\n", "line 1: crash expects: crash <target> <at>"},
      {"flap 0 3s\n", "line 1: flap expects: flap <target> <at> <duration>"},
      {"phase meltdown 10s\n", "line 1: unknown phase 'meltdown'"},
      {"phase churn soon\n", "line 1: phase start 'soon' is not a duration"},
      {"phase churn 10s 20s speed=9\n", "line 1: unknown phase option 'speed'"},
      {"phase churn 10s release=2.5\n",
       "line 1: phase option 'release=2.5' has a malformed value"},
      {"phase churn 10s hold\n",
       "line 1: phase duration 'hold' is not a duration"},
      // Errors report the offending line, not the first.
      {"seed 4\nmachines 8\nduration forever\n",
       "line 3: duration 'forever' must be an integer followed by ns, us, ms, "
       "s, or m"},
  };
  for (const auto& c : kCases) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::Parse(c.text, &spec, &error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

TEST(ScenarioSpecTest, ValidateCatchesSemanticErrors) {
  const ScenarioSpec empty{.name = "empty"};
  EXPECT_EQ(empty.Validate(), "scenario has no tenants");

  const ScenarioSpec tight{
      .name = "tight", .machines = 2, .tenants = {{"a", Tier::kCharlie, 4}}};
  EXPECT_EQ(tight.Validate(), "machines (2) fewer than total tenant nodes (4)");

  const ScenarioSpec late{
      .name = "late",
      .duration = sim::Duration::Minutes(10),
      .tenants = {{"a", Tier::kCharlie, 2}},
      .phases = {{.kind = PhaseKind::kChurn, .start = sim::Duration::Seconds(700)}}};
  EXPECT_EQ(late.Validate(), "phase 'churn' at 700s starts after the scenario ends (600s)");

  const ScenarioSpec resize{
      .name = "resize",
      .tenants = {{"a", Tier::kCharlie, 2}},
      .phases = {{.kind = PhaseKind::kAirlockResize,
                  .start = sim::Duration::Seconds(10)}}};
  EXPECT_EQ(resize.Validate(), "airlock_resize phase needs slots=N");

  const ScenarioSpec crashy{
      .name = "crashy",
      .machines = 4,
      .tenants = {{"a", Tier::kCharlie, 2}},
      .crashes = {{.target = 9, .at = sim::Duration::Seconds(5)}}};
  EXPECT_EQ(crashy.Validate(), "crash target 9 out of range (machines: 4)");

  // Parse runs Validate too: a syntactically clean but semantically empty
  // spec fails with the plain (line-free) validation message.
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse("seed 3\n", &spec, &error));
  EXPECT_EQ(error, "scenario has no tenants");
}

TEST(ScenarioSpecTest, PhaseNamesAreCanonical) {
  EXPECT_EQ(PhaseName(PhaseKind::kChurn), "churn");
  EXPECT_EQ(PhaseName(PhaseKind::kRebootStorm), "reboot_storm");
  EXPECT_EQ(PhaseName(PhaseKind::kRollingUpgrade), "rolling_upgrade");
  EXPECT_EQ(PhaseName(PhaseKind::kQuarantineSweep), "quarantine_sweep");
  EXPECT_EQ(PhaseName(PhaseKind::kAirlockResize), "airlock_resize");
}

// The committed example specs must stay parseable: they are the format's
// documentation.
TEST(ScenarioSpecTest, ExampleSpecsParse) {
  for (const char* name :
       {"mixed_lifecycle.scenario", "upgrade_rollback.scenario"}) {
    const std::string path = std::string(BOLTED_SCENARIO_EXAMPLES "/") + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing example spec: " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(ScenarioSpec::Parse(buffer.str(), &spec, &error))
        << path << ": " << error;
    EXPECT_FALSE(spec.phases.empty()) << path;
  }
}

// ---------------------------------------------------------------------------
// Oracle runner: each phase in isolation at small scale

ScenarioSpec SmallFleet(const std::string& name, int nodes) {
  return ScenarioSpec{
      .name = name,
      .seed = 17,
      // A single provision runs ~132 sim-seconds under fleet calibration,
      // so the arrival wave completes around t=270s; phases start after.
      .duration = sim::Duration::Minutes(12),
      .machines = nodes,
      .airlock_slots = 2,
      .tenants = {{"charlie", Tier::kCharlie, nodes}},
      .arrival = {.kind = ArrivalKind::kFixed,
                  .fixed_spacing = sim::Duration::Seconds(2)}};
}

void ExpectConverged(const ScenarioResult& result, int nodes) {
  EXPECT_TRUE(result.ok()) << result.failures.front();
  ASSERT_EQ(result.final_states.size(), static_cast<size_t>(nodes));
  for (const core::NodeState state : result.final_states) {
    EXPECT_EQ(state, core::NodeState::kAllocated);
  }
}

TEST(ScenarioRunnerTest, ChurnPhaseCyclesNodes) {
  ScenarioSpec spec = SmallFleet("churn_only", 3);
  spec.phases.push_back({.kind = PhaseKind::kChurn,
                         .start = sim::Duration::Seconds(300),
                         .duration = sim::Duration::Seconds(120),
                         .hold = sim::Duration::Seconds(10),
                         .release_fraction = 0.9});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 3);
  EXPECT_GE(result.stats.churn_cycles, 1u);
  EXPECT_EQ(result.stats.provision_failures, 0u);
}

TEST(ScenarioRunnerTest, RebootStormRebootsEveryNode) {
  ScenarioSpec spec = SmallFleet("storm_only", 3);
  spec.phases.push_back({.kind = PhaseKind::kRebootStorm,
                         .start = sim::Duration::Seconds(300),
                         .storm_fraction = 1.0});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 3);
  EXPECT_EQ(result.stats.storm_reboots, 3u);
}

TEST(ScenarioRunnerTest, RollingUpgradeUpgradesFleet) {
  ScenarioSpec spec = SmallFleet("upgrade_clean", 3);
  spec.phases.push_back({.kind = PhaseKind::kRollingUpgrade,
                         .start = sim::Duration::Seconds(300),
                         .canaries = 1});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 3);
  EXPECT_EQ(result.stats.upgrades, 3u);
  EXPECT_EQ(result.stats.rollbacks, 0u);
}

TEST(ScenarioRunnerTest, BadUpgradeImageRollsBackAndAborts) {
  ScenarioSpec spec = SmallFleet("upgrade_bad", 4);
  spec.phases.push_back({.kind = PhaseKind::kRollingUpgrade,
                         .start = sim::Duration::Seconds(300),
                         .canaries = 2,
                         .bad_image = true});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  // The compromised image never attests; both canaries roll back and the
  // fleet wave must not start.
  ExpectConverged(result, 4);
  EXPECT_EQ(result.stats.rollbacks, 2u);
  EXPECT_EQ(result.stats.upgrades, 0u);
}

TEST(ScenarioRunnerTest, QuarantineSweepQuarantinesAndReprovisions) {
  ScenarioSpec spec = SmallFleet("sweep_only", 3);
  spec.phases.push_back({.kind = PhaseKind::kQuarantineSweep,
                         .start = sim::Duration::Seconds(300),
                         .compromise_fraction = 1.0});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 3);
  EXPECT_EQ(result.stats.compromises, 3u);
  EXPECT_EQ(result.stats.quarantines, 3u);
}

TEST(ScenarioRunnerTest, AirlockResizeGrowsAndShrinks) {
  ScenarioSpec spec = SmallFleet("resize", 4);
  spec.phases.push_back({.kind = PhaseKind::kAirlockResize,
                         .start = sim::Duration::Seconds(40),
                         .airlock_slots = 6});
  spec.phases.push_back({.kind = PhaseKind::kAirlockResize,
                         .start = sim::Duration::Seconds(300),
                         .airlock_slots = 1});
  spec.phases.push_back({.kind = PhaseKind::kRebootStorm,
                         .start = sim::Duration::Seconds(320),
                         .storm_fraction = 1.0});
  ASSERT_EQ(spec.Validate(), "");
  // The storm reboots the whole fleet through a single airlock slot after
  // the shrink: elastic resize must not deadlock or leak permits.
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 4);
  EXPECT_EQ(result.stats.airlock_resizes, 2u);
  EXPECT_EQ(result.stats.storm_reboots, 4u);
}

// The interleaving the chaos suite never reached (its crashes land during
// steady-state attestation): a machine crash in the middle of an enclave
// firmware-upgrade window.  The clean-abort invariant is checked after
// every failed provision inside the runner, and the final sweep proves
// the crashed node re-provisions once the fabric heals.
TEST(ScenarioRunnerTest, CrashDuringUpgradeWindowAbortsCleanly) {
  ScenarioSpec spec = SmallFleet("upgrade_crash", 4);
  spec.faults = FaultMode::kPlan;
  spec.crashes.push_back({.target = 1, .at = sim::Duration::Seconds(310)});
  spec.phases.push_back({.kind = PhaseKind::kRollingUpgrade,
                         .start = sim::Duration::Seconds(300),
                         .canaries = 2});
  ASSERT_EQ(spec.Validate(), "");
  const ScenarioResult result = RunScenario(spec);
  ExpectConverged(result, 4);
  EXPECT_GE(result.stats.faults_fired, 1u);
  // A clean image plus a transient crash must never read as an integrity
  // failure: the rollout still completes on the surviving nodes.
  EXPECT_GE(result.stats.upgrades, 2u);
}

// ---------------------------------------------------------------------------
// Replay and scheduler invariance

ScenarioSpec MixedSpec(uint64_t seed) {
  ScenarioSpec spec{
      .name = "mixed",
      .seed = seed,
      .duration = sim::Duration::Minutes(22),
      .machines = 6,
      .airlock_slots = 4,
      .tenants = {{"alice", Tier::kAlice, 2},
                  {"bob", Tier::kBob, 2},
                  {"charlie", Tier::kCharlie, 2}},
      .arrival = {.kind = ArrivalKind::kFixed,
                  .fixed_spacing = sim::Duration::Seconds(2)},
      .phases = {{.kind = PhaseKind::kChurn,
                  .start = sim::Duration::Minutes(5),
                  .duration = sim::Duration::Minutes(2),
                  .hold = sim::Duration::Seconds(20)},
                 {.kind = PhaseKind::kRebootStorm,
                  .start = sim::Duration::Minutes(10)},
                 {.kind = PhaseKind::kRollingUpgrade,
                  .start = sim::Duration::Minutes(15),
                  .canaries = 2},
                 // The upgrade runs ~5 minutes; the sweep waits for it so
                 // the continuously-attested nodes are idle again.
                 {.kind = PhaseKind::kQuarantineSweep,
                  .start = sim::Duration::Minutes(21),
                  .compromise_fraction = 0.5}}};
  EXPECT_EQ(spec.Validate(), "");
  return spec;
}

TEST(ScenarioRunnerTest, ReplayReproducesDigestAcrossSeeds) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    const ScenarioSpec spec = MixedSpec(seed);
    const ScenarioResult first = RunScenario(spec);
    EXPECT_TRUE(first.ok()) << "seed " << seed << ": " << first.failures.front();
    const ScenarioResult replay = RunScenario(spec);
    EXPECT_EQ(first.digest, replay.digest) << "seed " << seed;
    EXPECT_TRUE(first.final_states == replay.final_states) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Rack-sharded scenario model

ShardedScenarioConfig SmallShardedMix(uint32_t shards, uint32_t workers) {
  ShardedScenarioConfig config;
  config.racks = 8;
  config.nodes_per_rack = 32;
  config.shards = shards;
  config.workers = workers;
  config.seed = 23;
  config.horizon_ns = 40'000'000'000;
  config.churn_start_ns = 8'000'000'000;
  config.churn_end_ns = 25'000'000'000;
  config.churn_hold_ns = 6'000'000'000;
  config.storm_at_ns = 15'000'000'000;
  config.storm_fraction = 0.5;
  config.upgrade_at_ns = 22'000'000'000;
  config.canaries = 3;
  config.sweep_at_ns = 30'000'000'000;
  config.compromise_fraction = 0.25;
  return config;
}

TEST(ShardedScenarioTest, ShardedMatchesSingleShardOracle) {
  const ShardedScenarioResult oracle = RunShardedScenario(SmallShardedMix(1, 1));
  ASSERT_TRUE(oracle.ok()) << oracle.failures.front();
  EXPECT_GT(oracle.provisions, 0u);
  EXPECT_GT(oracle.storm_reboots, 0u);
  EXPECT_GT(oracle.upgrades, 0u);
  EXPECT_GT(oracle.quarantines, 0u);

  const ShardedScenarioResult sharded =
      RunShardedScenario(SmallShardedMix(4, 4));
  ASSERT_TRUE(sharded.ok()) << sharded.failures.front();
  EXPECT_EQ(oracle.fleet_digest, sharded.fleet_digest);
  EXPECT_TRUE(oracle.rack_digests == sharded.rack_digests);
  EXPECT_EQ(oracle.windows, sharded.windows);
  EXPECT_EQ(oracle.rack_runs, sharded.rack_runs);
  EXPECT_TRUE(oracle.final_states == sharded.final_states);
  EXPECT_TRUE(oracle.final_firmware == sharded.final_firmware);
  EXPECT_EQ(oracle.provisions, sharded.provisions);
  EXPECT_EQ(oracle.quotes, sharded.quotes);
  EXPECT_EQ(oracle.quarantines, sharded.quarantines);
  EXPECT_EQ(oracle.upgrades, sharded.upgrades);
}

TEST(ShardedScenarioTest, ReplayReproducesFleetDigest) {
  const ShardedScenarioResult a = RunShardedScenario(SmallShardedMix(2, 2));
  const ShardedScenarioResult b = RunShardedScenario(SmallShardedMix(2, 2));
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_TRUE(a.final_states == b.final_states);
}

TEST(ShardedScenarioTest, BadImageAbortsShardedRollout) {
  ShardedScenarioConfig config = SmallShardedMix(2, 2);
  config.churn_start_ns = 0;
  config.churn_end_ns = 0;  // isolate the rollout
  config.storm_at_ns = 0;
  config.sweep_at_ns = 0;
  config.bad_image = true;
  const ShardedScenarioResult result = RunShardedScenario(config);
  EXPECT_TRUE(result.ok()) << result.failures.front();
  EXPECT_GT(result.rollbacks, 0u);
  EXPECT_EQ(result.upgrades, 0u);
}

}  // namespace
}  // namespace bolted::scenario
