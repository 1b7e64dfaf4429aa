// Scenario soak (selected with `ctest -L scenario_soak`): the standing
// long-horizon correctness harness.
//
// Two legs:
//
//   * Oracle soak — a 16-seed sweep of the mixed churn + reboot-storm +
//     rolling-upgrade scenario on the full-fidelity runner.  Every seed
//     must hold the chaos-suite invariants (isolation, convergence, clean
//     abort) and reproduce its trace digest on a same-seed replay.
//
//   * Sharded acceptance — the mixed churn + storm + upgrade + quarantine
//     scenario at 1024 nodes for >= 60 simulated seconds, run on the
//     single-threaded oracle configuration and again at shards=4: the
//     per-node verdicts, firmware, and per-rack digests must be
//     byte-identical.
//
// Flags:  --seeds=N        size of the oracle sweep (default 16)
//         --sharded-only   skip the oracle sweep (the TSan leg: the
//                          sharded model is where the threads are)
//         --seed=N         run exactly this oracle seed (repeatable)

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"
#include "src/scenario/sharded.h"

namespace bolted::scenario {
namespace {

ScenarioSpec SoakSpec(uint64_t seed) {
  ScenarioSpec spec{
      .name = "soak",
      .seed = seed,
      // A single provision is ~132 sim-seconds under fleet calibration, so
      // the phases are spaced to let each settle.
      .duration = sim::Duration::Minutes(18),
      .machines = 6,
      .airlock_slots = 4,
      .tenants = {{"alice", Tier::kAlice, 2},
                  {"bob", Tier::kBob, 2},
                  {"charlie", Tier::kCharlie, 2}},
      .arrival = {.kind = ArrivalKind::kPoisson, .rate_per_minute = 20},
      .phases = {{.kind = PhaseKind::kChurn,
                  .start = sim::Duration::Minutes(5),
                  .duration = sim::Duration::Minutes(3),
                  .hold = sim::Duration::Seconds(15),
                  .release_fraction = 0.7},
                 {.kind = PhaseKind::kRebootStorm,
                  .start = sim::Duration::Minutes(10)},
                 {.kind = PhaseKind::kRollingUpgrade,
                  .start = sim::Duration::Minutes(14),
                  .canaries = 2}}};
  EXPECT_EQ(spec.Validate(), "");
  return spec;
}

class SoakSeedTest : public ::testing::Test {
 public:
  explicit SoakSeedTest(uint64_t seed) : seed_(seed) {}

  void TestBody() override {
    const ScenarioSpec spec = SoakSpec(seed_);
    const ScenarioResult first = RunScenario(spec);
    for (const std::string& failure : first.failures) {
      ADD_FAILURE() << "seed " << seed_ << ": " << failure;
    }
    EXPECT_GE(first.stats.churn_cycles, 1u) << "vacuous churn, seed " << seed_;
    EXPECT_GE(first.stats.storm_reboots, 1u) << "vacuous storm, seed " << seed_;
    EXPECT_GE(first.stats.upgrades, 1u) << "vacuous upgrade, seed " << seed_;

    // Invariant (d): the digest is a function of the spec alone — same
    // stream on a replay.
    const ScenarioResult replay = RunScenario(spec);
    EXPECT_EQ(first.digest, replay.digest)
        << "trace diverged on replay of seed " << seed_;
    EXPECT_TRUE(first.final_states == replay.final_states)
        << "verdicts diverged on replay of seed " << seed_;

    if (HasFailure()) {
      std::cerr << "repro: scenario_soak_test --seed=" << seed_ << "\n";
    }
  }

 private:
  uint64_t seed_;
};

// The ISSUE's acceptance scenario: >= 1024 nodes, >= 60 simulated seconds,
// all four lifecycle phases, invariants asserted in-run.
ShardedScenarioConfig AcceptanceConfig(uint32_t shards, uint32_t workers) {
  ShardedScenarioConfig config;
  config.racks = 16;
  config.nodes_per_rack = 64;  // 1024 nodes
  config.shards = shards;
  config.workers = workers;
  config.seed = 20260809;
  // Attestation polling stops at the horizon, so the run drains slightly
  // before it; 66s of horizon guarantees >= 60 simulated seconds.
  config.horizon_ns = 66'000'000'000;
  config.churn_start_ns = 10'000'000'000;
  config.churn_end_ns = 40'000'000'000;
  config.churn_hold_ns = 8'000'000'000;
  config.storm_at_ns = 20'000'000'000;
  config.storm_fraction = 0.5;
  config.upgrade_at_ns = 30'000'000'000;
  config.canaries = 4;
  config.sweep_at_ns = 45'000'000'000;
  config.compromise_fraction = 0.25;
  return config;
}

class ShardedAcceptanceTest : public ::testing::Test {
 public:
  void TestBody() override {
    const ShardedScenarioResult oracle =
        RunShardedScenario(AcceptanceConfig(1, 1));
    for (const std::string& failure : oracle.failures) {
      ADD_FAILURE() << "oracle: " << failure;
    }
    EXPECT_EQ(oracle.final_states.size(), 1024u);
    EXPECT_GE(oracle.final_time_ns, 60'000'000'000);
    EXPECT_GE(oracle.churn_cycles, 1u);
    EXPECT_GE(oracle.storm_reboots, 1u);
    EXPECT_GE(oracle.upgrades, 1u);
    EXPECT_GE(oracle.quarantines, 1u);

    const ShardedScenarioResult sharded =
        RunShardedScenario(AcceptanceConfig(4, 4));
    for (const std::string& failure : sharded.failures) {
      ADD_FAILURE() << "shards=4: " << failure;
    }
    EXPECT_EQ(oracle.fleet_digest, sharded.fleet_digest);
    EXPECT_TRUE(oracle.rack_digests == sharded.rack_digests);
    // The window sequence is part of the contract, not just the digests.
    EXPECT_EQ(oracle.windows, sharded.windows);
    EXPECT_EQ(oracle.rack_runs, sharded.rack_runs);
    EXPECT_TRUE(oracle.final_states == sharded.final_states);
    EXPECT_TRUE(oracle.final_firmware == sharded.final_firmware);
    EXPECT_EQ(oracle.provisions, sharded.provisions);
    EXPECT_EQ(oracle.quotes, sharded.quotes);
    EXPECT_EQ(oracle.quarantines, sharded.quarantines);

    // Replay of the threaded configuration: still byte-identical.
    const ShardedScenarioResult again =
        RunShardedScenario(AcceptanceConfig(4, 4));
    EXPECT_EQ(sharded.fleet_digest, again.fleet_digest);
    EXPECT_TRUE(sharded.final_states == again.final_states);
  }
};

}  // namespace
}  // namespace bolted::scenario

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);

  bool sharded_only = false;
  uint64_t num_seeds = 16;
  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sharded-only") {
      sharded_only = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      num_seeds = std::strtoull(arg.c_str() + 8, nullptr, 0);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seeds.push_back(std::strtoull(arg.c_str() + 7, nullptr, 0));
    }
  }
  if (seeds.empty()) {
    for (uint64_t i = 1; i <= num_seeds; ++i) {
      seeds.push_back(i * 7919u + 3u);
    }
  }
  if (!sharded_only) {
    for (const uint64_t seed : seeds) {
      ::testing::RegisterTest(
          "ScenarioSoak", ("Seed_" + std::to_string(seed)).c_str(), nullptr,
          nullptr, __FILE__, __LINE__, [seed]() -> ::testing::Test* {
            return new bolted::scenario::SoakSeedTest(seed);
          });
    }
  }
  ::testing::RegisterTest(
      "ScenarioSoak", "ShardedAcceptance_1024", nullptr, nullptr, __FILE__,
      __LINE__, []() -> ::testing::Test* {
        return new bolted::scenario::ShardedAcceptanceTest();
      });
  return RUN_ALL_TESTS();
}
