#include "src/faults/faults.h"

#include "src/obs/obs.h"
#include "src/sim/random.h"

namespace bolted::faults {
namespace {

// Uniform offset in the middle of the active window, so every scheduled
// fault has room to land before the horizon.
sim::Duration WindowOffset(sim::Rng& rng, sim::Duration horizon) {
  return horizon.Scaled(rng.Uniform(0.05, 0.85));
}

sim::Duration UniformDuration(sim::Rng& rng, sim::Duration max) {
  return max.Scaled(rng.Uniform(0.25, 1.0));
}

}  // namespace

FaultPlan FaultPlan::Generate(uint64_t seed, const FaultProfile& profile,
                              size_t num_targets) {
  FaultPlan plan;
  plan.seed = seed;
  plan.profile = profile;
  // A dedicated stream per fault class keeps the plan stable under profile
  // tweaks to one class (e.g. more crashes never reshuffles the flaps).
  sim::Rng flap_rng(sim::SplitMix64(seed ^ 0x666c6170u));       // "flap"
  sim::Rng partition_rng(sim::SplitMix64(seed ^ 0x70617274u));  // "part"
  sim::Rng crash_rng(sim::SplitMix64(seed ^ 0x63726173u));      // "cras"
  if (num_targets > 0) {
    for (int i = 0; i < profile.link_flaps; ++i) {
      LinkFlapEvent flap;
      flap.target = static_cast<size_t>(flap_rng.NextBelow(num_targets));
      flap.at = WindowOffset(flap_rng, profile.horizon);
      flap.duration = UniformDuration(flap_rng, profile.max_flap);
      plan.flaps.push_back(flap);
    }
    for (int i = 0; i < profile.crashes; ++i) {
      CrashEvent crash;
      crash.target = static_cast<size_t>(crash_rng.NextBelow(num_targets));
      crash.at = WindowOffset(crash_rng, profile.horizon);
      plan.crashes.push_back(crash);
    }
  }
  for (int i = 0; i < profile.partitions; ++i) {
    PartitionEvent partition;
    partition.at = WindowOffset(partition_rng, profile.horizon);
    partition.duration = UniformDuration(partition_rng, profile.max_partition);
    partition.salt = partition_rng.NextU64();
    plan.partitions.push_back(partition);
  }
  return plan;
}

std::vector<FaultPlan> FaultPlan::PartitionByRack(
    const std::vector<uint32_t>& rack_of_target, uint32_t racks) const {
  std::vector<FaultPlan> parts(racks);
  // Rack-local target index of global target i = its rank among the
  // targets assigned to the same rack, in global (AddTarget) order — the
  // order a per-rack harness naturally re-adds them in.
  std::vector<size_t> local_index(rack_of_target.size(), 0);
  std::vector<size_t> next_local(racks, 0);
  for (size_t i = 0; i < rack_of_target.size(); ++i) {
    local_index[i] = next_local[rack_of_target[i]]++;
  }
  for (uint32_t r = 0; r < racks; ++r) {
    parts[r].seed = seed;
    parts[r].profile = profile;
    // Every rack sees the full fabric-wide partition schedule; the
    // address-salt grouping reproduces the same global cut locally.
    parts[r].partitions = partitions;
  }
  for (const LinkFlapEvent& flap : flaps) {
    const uint32_t r = rack_of_target[flap.target];
    LinkFlapEvent local = flap;
    local.target = local_index[flap.target];
    parts[r].flaps.push_back(local);
  }
  for (const CrashEvent& crash : crashes) {
    const uint32_t r = rack_of_target[crash.target];
    CrashEvent local = crash;
    local.target = local_index[crash.target];
    parts[r].crashes.push_back(local);
  }
  return parts;
}

FaultInjector::FaultInjector(sim::Simulation& sim, net::Network& network,
                             FaultPlan plan)
    : sim_(sim),
      network_(network),
      plan_(std::move(plan)),
      rng_(sim::SplitMix64(plan_.seed ^ 0x6672616du)) {}  // "fram"

void FaultInjector::AddTarget(machine::Machine* machine) {
  targets_.push_back(machine);
}

bool FaultInjector::Active() const {
  return armed_ && sim_.now() < quiesce_time();
}

bool FaultInjector::PartitionGroup(net::Address address) const {
  return (sim::SplitMix64(partition_salt_ ^ address) & 1) != 0;
}

net::FrameFault FaultInjector::FrameVerdict(const net::Message& message) {
  net::FrameFault fault;
  if (!Active()) {
    return fault;
  }
  // A partition is absolute for cross-group pairs — no coin flip.
  if (partition_active_ &&
      PartitionGroup(message.src) != PartitionGroup(message.dst)) {
    ++partition_drops_;
    fault.drop = true;
    return fault;
  }
  if (rng_.NextDouble() < plan_.profile.frame_drop_rate) {
    fault.drop = true;
    return fault;
  }
  if (rng_.NextDouble() < plan_.profile.frame_dup_rate) {
    fault.duplicates = 1;
  }
  if (rng_.NextDouble() < plan_.profile.frame_delay_rate) {
    fault.extra_delay =
        plan_.profile.max_extra_delay.Scaled(rng_.Uniform(0.0, 1.0));
  }
  return fault;
}

tpm::TpmFault FaultInjector::TpmVerdict() {
  tpm::TpmFault fault;
  if (!Active()) {
    return fault;
  }
  if (rng_.NextDouble() < plan_.profile.tpm_fail_rate) {
    fault.fail = true;
    ++tpm_faults_injected_;
    obs::Count(sim_, "fault.tpm");
  }
  if (rng_.NextDouble() < plan_.profile.tpm_spike_rate) {
    fault.extra_latency =
        plan_.profile.max_tpm_spike.Scaled(rng_.Uniform(0.1, 1.0));
    if (!fault.fail) {
      ++tpm_faults_injected_;
      obs::Count(sim_, "fault.tpm");
    }
  }
  return fault;
}

void FaultInjector::Arm() {
  armed_ = true;
  armed_at_ = sim_.now();
  network_.SetFaultFilter(
      [this](const net::Message& message) { return FrameVerdict(message); });
  for (machine::Machine* target : targets_) {
    target->tpm().SetFaultHook(
        [this](std::string_view) { return TpmVerdict(); });
  }

  for (const LinkFlapEvent& flap : plan_.flaps) {
    machine::Machine* target = targets_.at(flap.target);
    const net::Address address = target->address();
    sim_.Schedule(flap.at, [this, address]() {
      ++flaps_injected_;
      sim_.RecordTraceEvent(0xf1a0u ^ address);
      obs::Instant(sim_, "fault.flap", "fault", "faults",
                   {{"target", std::to_string(address)}});
      network_.SetLinkUp(address, false);
    });
    // The recovery always fires, even past the horizon: faults stop, heals
    // don't.
    sim_.Schedule(flap.at + flap.duration,
                  [this, address]() { network_.SetLinkUp(address, true); });
  }

  for (const PartitionEvent& partition : plan_.partitions) {
    sim_.Schedule(partition.at, [this, salt = partition.salt]() {
      ++partition_windows_;
      sim_.RecordTraceEvent(0x9a27u ^ salt);
      obs::Instant(sim_, "fault.partition", "fault", "faults",
                   {{"salt", std::to_string(salt)}});
      partition_active_ = true;
      partition_salt_ = salt;
    });
    sim_.Schedule(partition.at + partition.duration,
                  [this]() { partition_active_ = false; });
  }

  for (const CrashEvent& crash : plan_.crashes) {
    machine::Machine* target = targets_.at(crash.target);
    sim_.Schedule(crash.at, [this, target]() {
      ++crashes_injected_;
      sim_.RecordTraceEvent(0xc4a5u ^ target->address());
      obs::Instant(sim_, "fault.crash", "fault", "faults",
                   {{"target", std::to_string(target->address())}});
      // The BMC-level power cycle wipes PCRs and the boot log; the machine
      // drops off the fabric until the cycle completes.  It comes back
      // *unbooted* — continuous attestation must catch that, not forgive
      // it.
      target->PowerCycleReset();
      target->set_power_state(machine::PowerState::kOff);
      network_.SetLinkUp(target->address(), false);
      sim_.Schedule(plan_.profile.crash_reboot, [this, target]() {
        network_.SetLinkUp(target->address(), true);
      });
    });
  }
}

}  // namespace bolted::faults
