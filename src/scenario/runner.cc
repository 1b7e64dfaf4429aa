#include "src/scenario/runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/core/cloud.h"
#include "src/faults/faults.h"
#include "src/firmware/firmware.h"
#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace bolted::scenario {
namespace {

// Domain tags folded into the trace digest at phase boundaries, so a
// replay that diverges in phase orchestration (not just event timing)
// breaks the digest immediately.
constexpr uint64_t kPhaseTagBase = 0x5ce0'0000'0000'0000u;

core::TrustProfile ProfileFor(Tier tier) {
  switch (tier) {
    case Tier::kAlice:
      return core::TrustProfile::Alice();
    case Tier::kBob:
      return core::TrustProfile::Bob();
    case Tier::kCharlie:
      return core::TrustProfile::Charlie();
  }
  return core::TrustProfile::Charlie();
}

struct Slot {
  std::string node;
  int tenant = 0;
  bool busy = false;  // claimed by a phase; others must skip it
};

class Runner {
 public:
  explicit Runner(const ScenarioSpec& spec)
      : spec_(spec), rng_(spec.seed ^ 0x5ce0'ab1eu) {
    core::CloudConfig config;
    config.num_machines = spec.machines;
    config.linuxboot_in_flash = true;
    config.seed = spec.seed;
    if (spec.fleet_calibration) {
      // Long-horizon knob shared with bench/fleet_provisioning: a 32 MiB
      // boot image keeps a multi-phase run's I/O affordable.
      config.cal.boot_read_bytes = 32ull << 20;
    }
    config.cal.max_concurrent_airlocks = spec.airlock_slots;
    airlock_slots_now_ = spec.airlock_slots;
    cloud_ = std::make_unique<core::Cloud>(config);
  }

  ScenarioResult Run();

 private:
  sim::Simulation& sim() { return cloud_->sim(); }
  core::Enclave& enclave(const Slot& slot) { return *tenants_[slot.tenant]; }

  void Fail(const std::string& detail) {
    result_.failures.push_back(detail);
  }

  sim::Duration ExponentialDelay(sim::Duration mean) {
    const double ns = rng_.Exponential(
        static_cast<double>(std::max<int64_t>(mean.nanoseconds(), 1)));
    return sim::Duration::Nanoseconds(std::max<int64_t>(1, static_cast<int64_t>(ns)));
  }

  // Drives the sim in bounded slices until *flag flips or cap passes, so a
  // stuck coroutine cannot hang ctest.
  void RunUntilFlag(const bool* flag, sim::Duration cap) {
    const sim::Time deadline = sim().now() + cap;
    while (!*flag && sim().now() < deadline) {
      const sim::Time slice = sim().now() + sim::Duration::Seconds(30);
      sim().RunUntil(slice < deadline ? slice : deadline);
    }
  }

  sim::Duration NextArrivalGap() {
    switch (spec_.arrival.kind) {
      case ArrivalKind::kFixed:
        return spec_.arrival.fixed_spacing;
      case ArrivalKind::kPoisson:
        return ExponentialDelay(sim::Duration::Nanoseconds(static_cast<int64_t>(
            60e9 / std::max(spec_.arrival.rate_per_minute, 1e-3))));
      case ArrivalKind::kBurst:
        // Gap handling lives in the arrival driver (intra-burst is zero).
        return spec_.arrival.burst_interval;
    }
    return spec_.arrival.fixed_spacing;
  }

  // Invariant (c), inline half: a failed provision must have left nothing
  // behind.  Called after EVERY failed ProvisionNode, in any phase.
  void CheckCleanAbort(const Slot& slot, const core::ProvisionOutcome& outcome) {
    core::Enclave& tenant = enclave(slot);
    if (outcome.failure.empty()) {
      Fail(slot.node + " failed without a failure reason");
    }
    if (outcome.state != core::NodeState::kRejected) {
      Fail(slot.node + " failed but is not in the rejected pool");
    }
    if (tenant.profile().use_attestation && tenant.verifier().HasNode(slot.node)) {
      Fail(slot.node + " rejected but still registered with the verifier");
    }
    if (tenant.node_root_device(slot.node) != nullptr) {
      Fail(slot.node + " rejected but still has a root device");
    }
  }

  // Provision with the clean-abort invariant attached.  Returns success.
  sim::Task Provision(size_t slot_index, bool* success) {
    Slot& slot = slots_[slot_index];
    ++result_.stats.provisions;
    core::ProvisionOutcome outcome;
    co_await enclave(slot).ProvisionNode(slot.node, &outcome);
    if (!outcome.success) {
      ++result_.stats.provision_failures;
      CheckCleanAbort(slot, outcome);
      last_failure_[slot_index] = outcome.failure;
    }
    if (success != nullptr) {
      *success = outcome.success;
    }
  }

  sim::Task Release(size_t slot_index) {
    Slot& slot = slots_[slot_index];
    ++result_.stats.releases;
    co_await enclave(slot).ReleaseNode(slot.node);
  }

  // --- Arrival: the initial provisioning wave -----------------------------
  sim::Task ArrivalDriver() {
    sim::TaskGroup group(sim());
    int in_burst = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      group.Spawn(Provision(i, nullptr));
      const bool burst = spec_.arrival.kind == ArrivalKind::kBurst;
      if (burst && ++in_burst < spec_.arrival.burst_size) {
        continue;  // same instant: the burst arrives together
      }
      in_burst = 0;
      if (i + 1 < slots_.size()) {
        co_await sim::Delay(sim(), NextArrivalGap());
      }
    }
    co_await group.WaitAll();
    arrivals_done_ = true;
  }

  // --- Phase: churn --------------------------------------------------------
  sim::Task ChurnCycle(size_t slot_index) {
    Slot& slot = slots_[slot_index];
    co_await Release(slot_index);
    co_await sim::Delay(sim(), sim::Duration::Seconds(1));
    co_await Provision(slot_index, nullptr);
    ++result_.stats.churn_cycles;
    slot.busy = false;
  }

  sim::Task ChurnPhase(PhaseSpec phase) {
    const sim::Time end = sim().now() + phase.duration;
    sim::TaskGroup group(sim());
    while (sim().now() < end) {
      // Pick a random idle, allocated node; churn it with P(release).
      std::vector<size_t> candidates;
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].busy && enclave(slots_[i]).node_state(slots_[i].node) ==
                                   core::NodeState::kAllocated) {
          candidates.push_back(i);
        }
      }
      if (!candidates.empty() &&
          rng_.NextDouble() < phase.release_fraction) {
        const size_t pick = candidates[rng_.NextBelow(candidates.size())];
        slots_[pick].busy = true;
        group.Spawn(ChurnCycle(pick));
      }
      co_await sim::Delay(sim(), ExponentialDelay(phase.hold));
    }
    co_await group.WaitAll();
  }

  // --- Phase: reboot storm -------------------------------------------------
  sim::Task StormReboot(size_t slot_index, bool verify_after) {
    Slot& slot = slots_[slot_index];
    co_await Release(slot_index);
    bool ok = false;
    co_await Provision(slot_index, &ok);
    if (ok) {
      ++result_.stats.storm_reboots;
      if (verify_after && enclave(slot).profile().use_attestation) {
        // The storm's attestation burst: every rebooted node demands a
        // fresh verdict at once.
        keylime::VerificationResult verdict;
        co_await enclave(slot).verifier().VerifyNode(slot.node, &verdict);
        if (!verdict.passed && spec_.faults == FaultMode::kOff) {
          Fail(slot.node + " fails attestation after storm reboot: " +
               verdict.failure);
        }
      }
    }
    slot.busy = false;
  }

  sim::Task RebootStormPhase(PhaseSpec phase) {
    sim::TaskGroup group(sim());
    bool any = false;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].busy || enclave(slots_[i]).node_state(slots_[i].node) !=
                                core::NodeState::kAllocated) {
        continue;
      }
      if (rng_.NextDouble() < phase.storm_fraction) {
        slots_[i].busy = true;
        any = true;
        group.Spawn(StormReboot(i, /*verify_after=*/true));
      }
    }
    if (!any) {
      Fail("reboot_storm phase found no allocated node to reboot");
    }
    co_await group.WaitAll();
  }

  // --- Phase: rolling firmware upgrade ------------------------------------
  sim::Task UpgradeOne(size_t slot_index, const firmware::FirmwareImage& flashed,
                       bool* integrity_failed) {
    Slot& slot = slots_[slot_index];
    machine::Machine* machine = cloud_->FindMachine(slot.node);
    co_await Release(slot_index);
    machine->ReflashFirmware(flashed);
    bool ok = false;
    co_await Provision(slot_index, &ok);
    if (ok) {
      ++result_.stats.upgrades;
    } else {
      if (!core::IsTransientProvisionFailure(last_failure_[slot_index])) {
        // Integrity rejection: the canary caught a bad image.  The caller
        // aborts the rollout.
        *integrity_failed = true;
      }
      // Any node that failed to come up healthy on the new image — even
      // for transient, fault-layer reasons — rolls back to the old
      // firmware.  Leaving an unattested image stranded in flash would
      // poison every later re-provision of this node.
      ++result_.stats.rollbacks;
      co_await Release(slot_index);
      machine->ReflashFirmware(cloud_->linuxboot());
      bool rollback_ok = false;
      co_await Provision(slot_index, &rollback_ok);
      if (!rollback_ok && spec_.faults == FaultMode::kOff) {
        Fail(slot.node + " failed to re-provision after firmware rollback: " +
             last_failure_[slot_index]);
      }
    }
    slot.busy = false;
  }

  sim::Task RollingUpgradePhase(PhaseSpec phase) {
    // The tenant rebuilds LinuxBoot v2 from source and predicts its digest
    // (the deterministic-build property, §5), whitelisting it ahead of the
    // first reflash.  With bad_image the BMC flashes a compromised variant
    // while the whitelist still expects the clean build — the canaries
    // must fail attestation and trigger rollback.
    const firmware::FirmwareImage v2 =
        firmware::BuildLinuxBoot("heads-v2+" + spec_.name);
    const firmware::FirmwareImage flashed =
        phase.bad_image ? firmware::CompromisedVariant(v2, "rollout-implant")
                        : v2;
    for (auto& tenant : tenants_) {
      tenant->AllowBootDigest(v2.digest);
    }

    std::vector<size_t> candidates;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy && enclave(slots_[i]).node_state(slots_[i].node) ==
                                 core::NodeState::kAllocated) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      Fail("rolling_upgrade phase found no allocated node to upgrade");
      co_return;
    }

    // Canary wave first; the fleet only follows when every canary passed.
    const size_t canaries =
        std::min<size_t>(static_cast<size_t>(phase.canaries), candidates.size());
    bool integrity_failed = false;
    {
      sim::TaskGroup wave(sim());
      for (size_t c = 0; c < canaries; ++c) {
        slots_[candidates[c]].busy = true;
        wave.Spawn(UpgradeOne(candidates[c], flashed, &integrity_failed));
      }
      co_await wave.WaitAll();
    }

    if (integrity_failed) {
      if (!phase.bad_image) {
        Fail("rolling_upgrade: clean image rejected as an integrity failure");
      }
      co_return;  // staged rollout aborted; the fleet keeps old firmware
    }
    if (phase.bad_image) {
      Fail("rolling_upgrade: compromised canary image passed attestation");
      co_return;
    }

    sim::TaskGroup rest(sim());
    for (size_t c = canaries; c < candidates.size(); ++c) {
      const size_t i = candidates[c];
      if (slots_[i].busy || enclave(slots_[i]).node_state(slots_[i].node) !=
                                core::NodeState::kAllocated) {
        continue;  // churn got there first; the sweep at the end covers it
      }
      slots_[i].busy = true;
      rest.Spawn(UpgradeOne(i, flashed, &integrity_failed));
    }
    co_await rest.WaitAll();
  }

  // --- Phase: compromise-detection sweep ----------------------------------
  sim::Task QuarantineOne(size_t slot_index) {
    Slot& slot = slots_[slot_index];
    core::Enclave& tenant = enclave(slot);
    ++result_.stats.compromises;
    tenant.ExecuteBinary(slot.node, "/tmp/.hidden/rootkit",
                         crypto::Sha256::Hash("rootkit-" + spec_.name),
                         /*whitelisted_already=*/false);
    // Continuous attestation must notice the unwhitelisted measurement and
    // quarantine the node.  Give it a generous number of polls.
    const sim::Time deadline = sim().now() + sim::Duration::Minutes(3);
    while (tenant.node_state(slot.node) != core::NodeState::kRejected &&
           sim().now() < deadline) {
      co_await sim::Delay(sim(), sim::Duration::Seconds(1));
    }
    if (tenant.node_state(slot.node) != core::NodeState::kRejected) {
      Fail("compromise on " + slot.node + " was never quarantined");
      slot.busy = false;
      co_return;
    }
    ++result_.stats.quarantines;
    // Quarantined != leaked: the node must release and re-provision.
    co_await Release(slot_index);
    bool ok = false;
    co_await Provision(slot_index, &ok);
    if (!ok && spec_.faults == FaultMode::kOff) {
      Fail(slot.node + " failed to re-provision after quarantine: " +
           last_failure_[slot_index]);
    }
    slot.busy = false;
  }

  sim::Task QuarantineSweepPhase(PhaseSpec phase) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy &&
          enclave(slots_[i]).profile().continuous_attestation &&
          enclave(slots_[i]).node_state(slots_[i].node) ==
              core::NodeState::kAllocated) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      Fail("quarantine_sweep phase found no continuously-attested node");
      co_return;
    }
    sim::TaskGroup group(sim());
    bool any = false;
    for (const size_t i : candidates) {
      if (rng_.NextDouble() < phase.compromise_fraction) {
        slots_[i].busy = true;
        any = true;
        group.Spawn(QuarantineOne(i));
      }
    }
    if (!any) {  // fraction rounded to nothing: compromise one anyway
      slots_[candidates[0]].busy = true;
      group.Spawn(QuarantineOne(candidates[0]));
    }
    co_await group.WaitAll();
  }

  // --- Phase: elastic airlock resize --------------------------------------
  sim::Task AirlockResizePhase(PhaseSpec phase) {
    const int delta = phase.airlock_slots - airlock_slots_now_;
    cloud_->airlock_slots().AddPermits(delta);
    airlock_slots_now_ = phase.airlock_slots;
    ++result_.stats.airlock_resizes;
    co_return;
  }

  sim::Task PhaseDriver(PhaseSpec phase) {
    co_await sim::Delay(sim(), phase.start);
    const sim::Time started = sim().now();
    sim().RecordTraceEvent(kPhaseTagBase + static_cast<uint64_t>(phase.kind));
    obs::Count(sim(), "scenario.phase_started");
    switch (phase.kind) {
      case PhaseKind::kChurn:
        co_await ChurnPhase(phase);
        break;
      case PhaseKind::kRebootStorm:
        co_await RebootStormPhase(phase);
        break;
      case PhaseKind::kRollingUpgrade:
        co_await RollingUpgradePhase(phase);
        break;
      case PhaseKind::kQuarantineSweep:
        co_await QuarantineSweepPhase(phase);
        break;
      case PhaseKind::kAirlockResize:
        co_await AirlockResizePhase(phase);
        break;
    }
    obs::CompleteSince(sim(), PhaseName(phase.kind), "scenario", "scenario",
                       started);
  }

  sim::Task AllPhases() {
    sim::TaskGroup group(sim());
    group.Spawn(ArrivalDriver());
    for (const PhaseSpec& phase : spec_.phases) {
      group.Spawn(PhaseDriver(phase));
    }
    co_await group.WaitAll();
    phases_done_ = true;
  }

  // Invariant (b) + end-to-end half of (c): on the quiesced fabric, every
  // node must reach allocated (re-provisioning whatever the run rejected)
  // and pass a fresh attestation round.
  sim::Task FinalSweep() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      core::Enclave& tenant = enclave(slot);
      if (tenant.node_state(slot.node) != core::NodeState::kAllocated) {
        co_await Release(i);
        bool ok = false;
        co_await Provision(i, &ok);
        if (!ok) {
          Fail("re-provisioning " + slot.node +
               " failed on a healthy fabric: " + last_failure_[i]);
          continue;
        }
      }
      if (tenant.profile().use_attestation) {
        keylime::VerificationResult verdict;
        co_await tenant.verifier().VerifyNode(slot.node, &verdict);
        if (!verdict.passed) {
          Fail(slot.node + " fails attestation after quiesce: " +
               verdict.failure);
        }
      }
    }
    sweep_done_ = true;
  }

#if BOLTED_OBS
  // Invariant (e): each planned fault appears exactly once as an obs
  // instant at its planned offset (the injector arms at t = 0), and the
  // registry's counters match the injector, the fabric and the tenants'
  // verifiers.  It only reads, so it schedules no event.
  void CheckObservable(const obs::Registry& registry,
                       const faults::FaultInjector& injector) {
    std::map<std::string, std::multiset<int64_t>> instants;
    for (const obs::TraceEvent& event : registry.events()) {
      if (event.kind == obs::TraceEvent::Kind::kInstant) {
        instants[event.name].insert(event.start.nanoseconds());
      }
    }
    const auto planned = [](const auto& events) {
      std::multiset<int64_t> at;
      for (const auto& event : events) {
        at.insert(event.at.nanoseconds());
      }
      return at;
    };
    const faults::FaultPlan& plan = injector.plan();
    if (instants["fault.flap"] != planned(plan.flaps)) {
      Fail("fault.flap instants (" +
           std::to_string(instants["fault.flap"].size()) +
           ") do not match the plan's flaps (" +
           std::to_string(plan.flaps.size()) +
           ") one-to-one at the planned times");
    }
    if (instants["fault.partition"] != planned(plan.partitions)) {
      Fail("fault.partition instants do not match the plan's partition "
           "windows");
    }
    if (instants["fault.crash"] != planned(plan.crashes)) {
      Fail("fault.crash instants do not match the plan's crashes");
    }
    uint64_t transient_retries = 0;
    std::set<const keylime::Verifier*> counted;  // Alice and Bob share one
    for (const auto& tenant : tenants_) {
      if (counted.insert(&tenant->verifier()).second) {
        transient_retries += tenant->verifier().transient_retries();
      }
    }
    const std::pair<const char*, uint64_t> books[] = {
        {"fault.tpm", injector.tpm_faults_injected()},
        {"net.frames.fault_dropped", cloud_->fabric().fault_drops()},
        {"net.frames.fault_duplicated", cloud_->fabric().fault_duplicates()},
        {"keylime.transient_retries", transient_retries}};
    for (const auto& [name, want] : books) {
      if (registry.counter(name) != want) {
        Fail("counter " + std::string(name) + " = " +
             std::to_string(registry.counter(name)) + ", expected " +
             std::to_string(want));
      }
    }
  }
#endif  // BOLTED_OBS

  const ScenarioSpec spec_;
  sim::Rng rng_;
  std::unique_ptr<core::Cloud> cloud_;
  std::vector<std::unique_ptr<core::Enclave>> tenants_;
  std::vector<Slot> slots_;
  std::map<size_t, std::string> last_failure_;
  int airlock_slots_now_ = 1;
  bool arrivals_done_ = false;
  bool phases_done_ = false;
  bool sweep_done_ = false;
  ScenarioResult result_;
};

ScenarioResult Runner::Run() {
  const std::string invalid = spec_.Validate();
  if (!invalid.empty()) {
    Fail("invalid spec: " + invalid);
    return std::move(result_);
  }

#if BOLTED_OBS
  obs::Registry registry(sim());
#endif

  // Tenants and their contiguous node assignments.
  size_t next_node = 0;
  for (size_t t = 0; t < spec_.tenants.size(); ++t) {
    const TenantSpec& tenant = spec_.tenants[t];
    tenants_.push_back(std::make_unique<core::Enclave>(
        *cloud_, tenant.name, ProfileFor(tenant.tier),
        spec_.seed ^ (0x7e00u + t)));
    for (int n = 0; n < tenant.nodes; ++n, ++next_node) {
      slots_.push_back(Slot{cloud_->node_name(next_node), static_cast<int>(t)});
    }
  }

  // Invariant (a): the provider-side sniffer sees every delivered frame; a
  // frame whose endpoints belong to different tenants is a breach no fault
  // or phase may cause.
  std::map<net::Address, int> owner;
  for (const Slot& slot : slots_) {
    owner[cloud_->FindMachine(slot.node)->address()] = slot.tenant;
  }
  for (size_t t = 0; t < spec_.tenants.size(); ++t) {
    for (const char* suffix :
         {"-controller", "-keylime-registrar", "-keylime-verifier"}) {
      if (net::Endpoint* e =
              cloud_->fabric().FindByName(spec_.tenants[t].name + suffix)) {
        owner[e->address()] = static_cast<int>(t);
      }
    }
  }
  bool breached = false;  // report the first breach, not ten thousand
  cloud_->fabric().SetSniffer(
      [this, owner = std::move(owner), &breached](net::VlanId vlan,
                                                  const net::Message& message) {
        if (breached) {
          return;
        }
        const auto src = owner.find(message.src);
        const auto dst = owner.find(message.dst);
        if (src != owner.end() && dst != owner.end() &&
            src->second != dst->second) {
          breached = true;
          Fail("frame '" + message.kind +
               "' delivered across enclaves on VLAN " + std::to_string(vlan));
        }
      });

  // Fault plan: generated from the seed (kOn), explicit events only
  // (kPlan), or absent.
  std::unique_ptr<faults::FaultInjector> injector;
  if (spec_.faults != FaultMode::kOff) {
    faults::FaultPlan plan;
    if (spec_.faults == FaultMode::kOn) {
      plan = faults::FaultPlan::Generate(spec_.seed ^ 0xFA017u,
                                         spec_.fault_profile,
                                         static_cast<size_t>(spec_.machines));
    } else {
      plan.seed = spec_.seed;
      plan.profile = spec_.fault_profile;
      // Explicit-plan mode: no stochastic faults, only the spec's events.
      plan.profile.frame_drop_rate = 0;
      plan.profile.frame_dup_rate = 0;
      plan.profile.frame_delay_rate = 0;
      plan.profile.tpm_fail_rate = 0;
      plan.profile.tpm_spike_rate = 0;
      plan.profile.horizon = spec_.duration;
    }
    for (const faults::CrashEvent& crash : spec_.crashes) {
      plan.crashes.push_back(crash);
    }
    for (const faults::LinkFlapEvent& flap : spec_.flaps) {
      plan.flaps.push_back(flap);
    }
    injector = std::make_unique<faults::FaultInjector>(sim(), cloud_->fabric(),
                                                       std::move(plan));
    for (size_t i = 0; i < cloud_->num_machines(); ++i) {
      injector->AddTarget(&cloud_->machine(i));
    }
    injector->Arm();
  }

  // The run itself: arrivals + phases, watchdogged far past the scenario
  // duration so a deadlocked phase fails loudly instead of hanging ctest.
  sim().Spawn(AllPhases());
  RunUntilFlag(&phases_done_, spec_.duration + sim::Duration::Minutes(45));
  if (!phases_done_) {
    Fail("scenario phases did not terminate within duration + 45 sim-minutes");
    result_.digest = sim().trace_digest();
    result_.sim_elapsed = sim().now() - sim::Time{};
    return std::move(result_);
  }

  // Quiesce: the fault window closes, continuous attestation settles.
  sim::Time settle = sim().now() + sim::Duration::Minutes(1);
  if (injector != nullptr) {
    const sim::Time fault_settle =
        injector->quiesce_time() + sim::Duration::Minutes(2);
    settle = settle < fault_settle ? fault_settle : settle;
  }
  sim().RunUntil(settle);

  sim().Spawn(FinalSweep());
  RunUntilFlag(&sweep_done_, sim::Duration::Minutes(45));
  if (!sweep_done_) {
    Fail("final convergence sweep did not terminate");
  }

  for (const Slot& slot : slots_) {
    result_.final_states.push_back(
        tenants_[slot.tenant]->node_state(slot.node));
  }
  if (injector != nullptr) {
    result_.stats.faults_fired =
        cloud_->fabric().fault_drops() + cloud_->fabric().fault_duplicates() +
        injector->flaps_injected() + injector->crashes_injected() +
        injector->partition_drops() + injector->tpm_faults_injected();
#if BOLTED_OBS
    CheckObservable(registry, *injector);
#endif
  }
  result_.digest = sim().trace_digest();
  result_.sim_elapsed = sim().now() - sim::Time{};
  return std::move(result_);
}

}  // namespace

ScenarioResult RunScenario(const ScenarioSpec& spec) {
  Runner runner(spec);
  return runner.Run();
}

}  // namespace bolted::scenario
