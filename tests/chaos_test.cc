// Chaos suite: seeded fault injection against the full control plane.
//
// Each seed derives a FaultPlan (frame drops/dups/delays, link flaps, a
// fabric partition, a machine crash, TPM faults) and runs two Charlie
// tenants through enclave provisioning + continuous attestation while the
// plan fires.  Four invariants must hold for every seed:
//
//   (a) isolation:   no frame is ever delivered across enclave boundaries,
//                    faults or no faults;
//   (b) convergence: once faults clear, every node ends allocated-and-
//                    passing or quarantined — verdicts settle;
//   (c) clean abort: provisioning either completes or fails with resources
//                    released, proven end-to-end by releasing every failed
//                    node and re-provisioning it successfully;
//   (d) replayable:  the whole-cloud event-trace digest is identical when
//                    the seed is replayed;
//   (e) observable:  every fault the plan injects shows up exactly once as
//                    a tagged obs trace event at the planned sim time, and
//                    the registry's counters reconcile with the injector's
//                    and verifiers' own books (BOLTED_OBS builds only).
//
// One interleaving this suite cannot reach: a machine crash landing inside
// a firmware-upgrade window (the plan's single crash fires during steady
// attestation, never mid-reflash).  That case is covered by the scenario
// engine — scenario_test's CrashDuringUpgradeWindowAbortsCleanly plants a
// crash inside a rolling upgrade via FaultMode::kPlan and asserts clean
// abort, rollback to the old firmware, and re-provisioning.
//
// Run a single failing seed with:  chaos_test --seed=N

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/cloud.h"
#include "src/core/enclave.h"
#include "src/faults/faults.h"
#include "src/obs/obs.h"

namespace bolted {
namespace {

struct ChaosResult {
  bool terminated = false;  // all orchestration coroutines finished
  bool cross_enclave = false;
  std::string cross_detail;
  bool clean = true;
  std::string clean_detail;
  bool converged = true;
  std::string converge_detail;
  bool obs_ok = true;
  std::string obs_detail;
  uint64_t digest = 0;
  uint64_t faults_fired = 0;  // guards against a vacuously green run
};

#if BOLTED_OBS
// Invariant (e): the registry's view of the run reconciles with every other
// book-keeper.  Each plan event must appear exactly once as an instant whose
// timestamp is the planned offset (the injector arms at t=0), and the fault/
// frame/retry counters must match the injector, fabric, and verifiers.
void CheckObsInvariant(const obs::Registry& registry,
                       const faults::FaultInjector& injector, core::Cloud& cloud,
                       uint64_t verifier_transient_retries, ChaosResult* result) {
  const auto fail = [result](const std::string& detail) {
    result->obs_ok = false;
    result->obs_detail = detail;
  };

  const faults::FaultPlan& plan = injector.plan();
  std::multiset<int64_t> flap_ts;
  std::multiset<int64_t> partition_ts;
  std::multiset<int64_t> crash_ts;
  for (const obs::TraceEvent& event : registry.events()) {
    if (event.kind != obs::TraceEvent::Kind::kInstant) {
      continue;
    }
    if (event.name == "fault.flap") {
      flap_ts.insert(event.start.nanoseconds());
    } else if (event.name == "fault.partition") {
      partition_ts.insert(event.start.nanoseconds());
    } else if (event.name == "fault.crash") {
      crash_ts.insert(event.start.nanoseconds());
    }
  }
  std::multiset<int64_t> want_flaps;
  for (const faults::LinkFlapEvent& flap : plan.flaps) {
    want_flaps.insert(flap.at.nanoseconds());
  }
  std::multiset<int64_t> want_partitions;
  for (const faults::PartitionEvent& partition : plan.partitions) {
    want_partitions.insert(partition.at.nanoseconds());
  }
  std::multiset<int64_t> want_crashes;
  for (const faults::CrashEvent& crash : plan.crashes) {
    want_crashes.insert(crash.at.nanoseconds());
  }
  if (flap_ts != want_flaps) {
    fail("fault.flap instants (" + std::to_string(flap_ts.size()) +
         ") do not match the plan's flaps (" + std::to_string(want_flaps.size()) +
         ") one-to-one at the planned times");
  }
  if (partition_ts != want_partitions) {
    fail("fault.partition instants do not match the plan's partition windows");
  }
  if (crash_ts != want_crashes) {
    fail("fault.crash instants do not match the plan's crashes");
  }

  const auto check_counter = [&](std::string_view name, uint64_t want) {
    const uint64_t got = registry.counter(name);
    if (got != want) {
      fail("counter " + std::string(name) + " = " + std::to_string(got) +
           ", expected " + std::to_string(want));
    }
  };
  check_counter("fault.tpm", injector.tpm_faults_injected());
  check_counter("net.frames.fault_dropped", cloud.fabric().fault_drops());
  check_counter("net.frames.fault_duplicated", cloud.fabric().fault_duplicates());
  check_counter("keylime.transient_retries", verifier_transient_retries);
}
#endif  // BOLTED_OBS

struct Placement {
  int enclave = 0;  // index into the tenant array
  const char* node = "";
};

ChaosResult RunChaosScenario(uint64_t seed) {
  ChaosResult result;

  core::CloudConfig config;
  config.num_machines = 3;
  config.linuxboot_in_flash = true;
  config.seed = seed;
  core::Cloud cloud(config);
  sim::Simulation& sim = cloud.sim();
#if BOLTED_OBS
  // Invariant (e) witnesses the whole run; attaching the registry must not
  // perturb the event stream (invariant (d) would catch it if it did).
  obs::Registry registry(sim);
#endif

  core::Enclave ta(cloud, "ta", core::TrustProfile::Charlie(), seed ^ 0x7461u);
  core::Enclave tb(cloud, "tb", core::TrustProfile::Charlie(), seed ^ 0x7462u);
  core::Enclave* tenants[] = {&ta, &tb};
  const std::vector<Placement> placements = {
      {0, "node-0"}, {0, "node-1"}, {1, "node-2"}};

  // Invariant (a): every delivered frame passes the provider sniffer; a
  // frame whose endpoints belong to different tenants is an isolation
  // breach no fault should be able to cause.
  std::map<net::Address, int> owner;
  owner[cloud.machine(0).address()] = 0;
  owner[cloud.machine(1).address()] = 0;
  owner[cloud.machine(2).address()] = 1;
  for (const char* suffix :
       {"-controller", "-keylime-registrar", "-keylime-verifier"}) {
    if (net::Endpoint* e = cloud.fabric().FindByName(std::string("ta") + suffix)) {
      owner[e->address()] = 0;
    }
    if (net::Endpoint* e = cloud.fabric().FindByName(std::string("tb") + suffix)) {
      owner[e->address()] = 1;
    }
  }
  cloud.fabric().SetSniffer([&](net::VlanId vlan, const net::Message& message) {
    const auto src = owner.find(message.src);
    const auto dst = owner.find(message.dst);
    if (src != owner.end() && dst != owner.end() && src->second != dst->second) {
      result.cross_enclave = true;
      result.cross_detail = "frame '" + message.kind + "' delivered across enclaves on VLAN " +
                            std::to_string(vlan);
    }
  });

  faults::FaultProfile profile;
  faults::FaultInjector injector(
      sim, cloud.fabric(),
      faults::FaultPlan::Generate(seed, profile, cloud.num_machines()));
  for (size_t i = 0; i < cloud.num_machines(); ++i) {
    injector.AddTarget(&cloud.machine(i));
  }
  injector.Arm();

  // Drives the sim in deterministic slices until *flag flips or the cap
  // passes; a stuck flag leaves sim.now() at the cap.
  const auto run_until = [&](const bool* flag, sim::Duration cap) {
    const sim::Time deadline = sim.now() + cap;
    while (!*flag && sim.now() < deadline) {
      const sim::Time slice = sim.now() + sim::Duration::Seconds(30);
      sim.RunUntil(slice < deadline ? slice : deadline);
    }
  };

  // --- Phase 1: provision everything while the fault plan fires ----------
  std::map<std::string, core::ProvisionOutcome> outcomes;
  bool provisioned = false;
  auto provision_flow = [&]() -> sim::Task {
    for (const Placement& p : placements) {
      co_await tenants[p.enclave]->ProvisionNode(p.node, &outcomes[p.node]);
    }
    provisioned = true;
  };
  sim.Spawn(provision_flow());
  run_until(&provisioned, sim::Duration::Minutes(30));
  if (!provisioned) {
    result.converged = false;
    result.converge_detail = "provisioning did not terminate within 30 sim-minutes";
    result.digest = sim.trace_digest();
    return result;
  }
  result.terminated = true;

  // Let the fault window close and continuous attestation settle verdicts
  // for anything the faults broke (crashed machines, flapped links).
  const sim::Time settle = injector.quiesce_time() + sim::Duration::Minutes(2);
  if (sim.now() < settle) {
    sim.RunUntil(settle);
  }

  // --- Invariant (c), part 1: failed provisioning released its resources -
  for (const Placement& p : placements) {
    core::Enclave& enclave = *tenants[p.enclave];
    const core::ProvisionOutcome& outcome = outcomes[p.node];
    if (outcome.success) {
      continue;
    }
    if (outcome.failure.empty()) {
      result.clean = false;
      result.clean_detail = std::string(p.node) + " failed without a failure reason";
    }
    if (outcome.state != core::NodeState::kRejected) {
      result.clean = false;
      result.clean_detail = std::string(p.node) + " failed but is not in the rejected pool";
    }
    if (enclave.verifier().HasNode(p.node)) {
      result.clean = false;
      result.clean_detail = std::string(p.node) + " rejected but still registered with the verifier";
    }
    if (enclave.node_root_device(p.node) != nullptr) {
      result.clean = false;
      result.clean_detail = std::string(p.node) + " rejected but still has a root device";
    }
  }

  // --- Phase 2 / invariant (c), part 2: reclaim + re-provision ------------
  // Every rejected node (failed provisioning or quarantined by continuous
  // attestation after a crash) must be releasable and re-provisionable on
  // the now-healthy fabric — the end-to-end proof that nothing leaked.
  bool reclaimed = false;
  auto reclaim_flow = [&]() -> sim::Task {
    for (const Placement& p : placements) {
      core::Enclave& enclave = *tenants[p.enclave];
      if (enclave.node_state(p.node) == core::NodeState::kRejected) {
        co_await enclave.ReleaseNode(p.node);
        core::ProvisionOutcome redo;
        co_await enclave.ProvisionNode(p.node, &redo);
        if (!redo.success) {
          result.clean = false;
          result.clean_detail = "re-provisioning released node " + std::string(p.node) +
                                " failed on a healthy fabric: " + redo.failure;
        }
      }
    }
    reclaimed = true;
  };
  sim.Spawn(reclaim_flow());
  run_until(&reclaimed, sim::Duration::Minutes(30));
  if (!reclaimed) {
    result.converged = false;
    result.converge_detail = "release/re-provision did not terminate";
    result.digest = sim.trace_digest();
    return result;
  }

  // --- Phase 3 / invariant (b): verdicts converged ------------------------
  bool checked = false;
  auto final_check = [&]() -> sim::Task {
    for (const Placement& p : placements) {
      core::Enclave& enclave = *tenants[p.enclave];
      if (enclave.node_state(p.node) != core::NodeState::kAllocated) {
        result.converged = false;
        result.converge_detail = std::string(p.node) + " did not converge to allocated";
        continue;
      }
      keylime::VerificationResult verdict;
      co_await enclave.verifier().VerifyNode(p.node, &verdict);
      if (!verdict.passed) {
        result.converged = false;
        result.converge_detail =
            std::string(p.node) + " fails attestation after quiesce: " + verdict.failure;
      }
    }
    checked = true;
  };
  sim.Spawn(final_check());
  run_until(&checked, sim::Duration::Minutes(5));
  if (!checked) {
    result.converged = false;
    result.converge_detail = "final verification did not terminate";
  }

  result.digest = sim.trace_digest();
  result.faults_fired = cloud.fabric().fault_drops() +
                        cloud.fabric().fault_duplicates() +
                        injector.flaps_injected() + injector.crashes_injected() +
                        injector.partition_drops() +
                        injector.tpm_faults_injected();
#if BOLTED_OBS
  CheckObsInvariant(registry, injector, cloud,
                    ta.verifier().transient_retries() +
                        tb.verifier().transient_retries(),
                    &result);
#endif
  return result;
}

class ChaosSeedTest : public ::testing::Test {
 public:
  explicit ChaosSeedTest(uint64_t seed) : seed_(seed) {}

  void TestBody() override {
    const ChaosResult first = RunChaosScenario(seed_);
    EXPECT_GT(first.faults_fired, 0u) << "fault plan never fired — vacuous run";
    EXPECT_TRUE(first.terminated) << first.converge_detail;
    EXPECT_FALSE(first.cross_enclave) << first.cross_detail;
    EXPECT_TRUE(first.clean) << first.clean_detail;
    EXPECT_TRUE(first.converged) << first.converge_detail;
    EXPECT_TRUE(first.obs_ok) << first.obs_detail;

    // Invariant (d): replaying the seed reproduces the exact event stream,
    // byte for byte.
    const ChaosResult replay = RunChaosScenario(seed_);
    EXPECT_EQ(first.digest, replay.digest)
        << "event trace diverged on replay of seed " << seed_;

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
