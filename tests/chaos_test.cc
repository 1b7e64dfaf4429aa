// Chaos suite: seeded fault injection against the full control plane.
//
// Each seed is one fixed scenario run through scenario::RunScenario: two
// Charlie tenants (two nodes and one) provision on three machines through a
// single airlock, with the paper's full boot volume, while a seed-derived
// FaultPlan fires frame drops, duplicates and delays, link flaps, a fabric
// partition, a machine crash and TPM faults.  The runner asserts the chaos
// invariants (a)-(e) (src/scenario/runner.h, DESIGN.md §8) and reports every
// violation; this suite adds the vacuity guard and replays the seed for the
// byte-for-byte half of (d).
//
// One interleaving this spec cannot reach: a machine crash landing inside
// a firmware-upgrade window (it has no upgrade phase).  scenario_test's
// CrashDuringUpgradeWindowAbortsCleanly plants a crash inside a rolling
// upgrade via FaultMode::kPlan and asserts clean abort, rollback to the old
// firmware, and re-provisioning.
//
// Run a single failing seed with:  chaos_test --seed=N

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/scenario/runner.h"

namespace bolted {
namespace {

scenario::ScenarioSpec ChaosSpec(uint64_t seed) {
  return {.name = "chaos",
          .seed = seed,
          .machines = 3,
          .airlock_slots = 1,
          .fleet_calibration = false,  // the paper's 500 MiB boot set
          .tenants = {{"ta", scenario::Tier::kCharlie, 2},
                      {"tb", scenario::Tier::kCharlie, 1}},
          .faults = scenario::FaultMode::kOn};
}

class ChaosSeedTest : public ::testing::Test {
 public:
  explicit ChaosSeedTest(uint64_t seed) : seed_(seed) {}

  void TestBody() override {
    const scenario::ScenarioSpec spec = ChaosSpec(seed_);
    const scenario::ScenarioResult first = scenario::RunScenario(spec);
    for (const std::string& failure : first.failures) {
      ADD_FAILURE() << failure;
    }
    EXPECT_GT(first.stats.faults_fired, 0u)
        << "fault plan never fired — vacuous run";

    // Invariant (d): replaying the seed reproduces the exact event stream,
    // byte for byte, and the same final verdicts.
    const scenario::ScenarioResult replay = scenario::RunScenario(spec);
    EXPECT_EQ(first.digest, replay.digest)
        << "event trace diverged on replay of seed " << seed_;
    EXPECT_EQ(first.final_states, replay.final_states);

    if (HasFailure()) {
      std::cerr << "repro: chaos_test --seed=" << seed_ << "\n";
    }
  }

 private:
  uint64_t seed_;
};

}  // namespace
}  // namespace bolted

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);

  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seeds.push_back(std::strtoull(arg.c_str() + 7, nullptr, 0));
    }
  }
  if (seeds.empty()) {
    // The CI sweep: 32 well-spread seeds.
    for (uint64_t i = 1; i <= 32; ++i) {
      seeds.push_back(i * 1000003u + 17u);
    }
  }
  for (const uint64_t seed : seeds) {
    ::testing::RegisterTest(
        "ChaosSweep", ("Seed_" + std::to_string(seed)).c_str(), nullptr, nullptr,
        __FILE__, __LINE__,
        [seed]() -> ::testing::Test* { return new bolted::ChaosSeedTest(seed); });
  }
  return RUN_ALL_TESTS();
}
