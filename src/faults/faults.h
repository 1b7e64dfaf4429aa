// Deterministic fault injection for chaos testing (DESIGN.md §8).
//
// A FaultPlan is a concrete, seed-derived schedule of infrastructure
// faults: frame-level misbehaviour at the switch (drop / duplicate /
// delay), link flaps, fabric partitions, machine crash+reboot, and TPM
// command failures or latency spikes.  The FaultInjector arms the plan
// against a simulated cloud: it installs the network fault filter and TPM
// fault hooks and schedules the discrete events on the simulation clock.
//
// Everything derives from a single uint64 seed through dedicated Rng
// streams, so a failing chaos run replays bit-for-bit from that seed —
// including the frame-level coin flips, whose draw order follows the
// (deterministic) simulated frame stream.
//
// Faults only fire inside the plan's active window.  After the horizon
// the fabric is healthy again (in-flight flaps and reboots still end), so
// harnesses can assert convergence: verdicts settle, provisioning either
// completed or failed cleanly.

#ifndef SRC_FAULTS_FAULTS_H_
#define SRC_FAULTS_FAULTS_H_

#include <cstdint>
#include <vector>

#include "src/machine/machine.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace bolted::faults {

// Intensity knobs; defaults model a moderately hostile fabric.  Rates are
// per-frame (or per-TPM-command) probabilities.
struct FaultProfile {
  // Faults fire in [armed, armed + horizon); afterwards the fabric heals.
  sim::Duration horizon = sim::Duration::Minutes(5);

  double frame_drop_rate = 0.02;
  double frame_dup_rate = 0.01;
  double frame_delay_rate = 0.05;
  sim::Duration max_extra_delay = sim::Duration::Milliseconds(250);

  int link_flaps = 3;
  sim::Duration max_flap = sim::Duration::Seconds(8);

  int partitions = 1;
  sim::Duration max_partition = sim::Duration::Seconds(10);

  int crashes = 1;
  // A crashed machine is unreachable (link down) for this long before its
  // BMC completes the power cycle and the link returns.
  sim::Duration crash_reboot = sim::Duration::Seconds(10);

  double tpm_fail_rate = 0.05;
  double tpm_spike_rate = 0.05;
  sim::Duration max_tpm_spike = sim::Duration::Seconds(4);
};

// Targets are indices into the injector's machine list (AddTarget order).
struct LinkFlapEvent {
  size_t target = 0;
  sim::Duration at{};  // offset from arming
  sim::Duration duration{};
};

struct PartitionEvent {
  sim::Duration at{};
  sim::Duration duration{};
  uint64_t salt = 0;  // decides the two endpoint groups
};

struct CrashEvent {
  size_t target = 0;
  sim::Duration at{};
};

// The discrete half of the schedule.  Same (seed, profile, num_targets)
// always generates the same plan.
struct FaultPlan {
  uint64_t seed = 0;
  FaultProfile profile;
  std::vector<LinkFlapEvent> flaps;
  std::vector<PartitionEvent> partitions;
  std::vector<CrashEvent> crashes;

  static FaultPlan Generate(uint64_t seed, const FaultProfile& profile,
                            size_t num_targets);

  // Splits a fleet-wide plan into one plan per rack for the sharded
  // runtime (src/sim/shard.h), where each rack arms its own injector
  // against its own fabric partition.  rack_of_target[i] names the rack
  // owning plan target i; flap and crash events are routed to the owning
  // rack's plan with their target index rewritten to that rack's local
  // AddTarget order (global order preserved within a rack).  Partition
  // events describe fabric-wide splits, so every rack receives a copy —
  // the salt-based grouping keys on addresses, which stay globally
  // unique, so the per-rack injectors reconstruct the same global cut.
  // Union of the returned plans' discrete events == this plan's events.
  std::vector<FaultPlan> PartitionByRack(
      const std::vector<uint32_t>& rack_of_target, uint32_t racks) const;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, net::Network& network, FaultPlan plan);

  // Machines eligible for crashes, link flaps, and TPM faults.  Add all
  // targets before Arm(); AddTarget order defines plan target indices.
  void AddTarget(machine::Machine* machine);

  // Installs the network fault filter and TPM hooks and schedules the
  // plan's discrete events relative to now.  Call once.
  void Arm();

  const FaultPlan& plan() const { return plan_; }
  // First instant at which no new fault can fire (in-flight flap/reboot
  // recoveries may still be pending — they only heal).
  sim::Time quiesce_time() const { return armed_at_ + plan_.profile.horizon; }

  uint64_t crashes_injected() const { return crashes_injected_; }
  uint64_t flaps_injected() const { return flaps_injected_; }
  uint64_t partition_drops() const { return partition_drops_; }
  uint64_t tpm_faults_injected() const { return tpm_faults_injected_; }

 private:
  bool Active() const;
  net::FrameFault FrameVerdict(const net::Message& message);
  tpm::TpmFault TpmVerdict();
  bool PartitionGroup(net::Address address) const;

  sim::Simulation& sim_;
  net::Network& network_;
  FaultPlan plan_;
  std::vector<machine::Machine*> targets_;
  sim::Rng rng_;  // frame/TPM coin flips; independent of the sim's own Rng
  sim::Time armed_at_;
  bool armed_ = false;
  bool partition_active_ = false;
  uint64_t partition_salt_ = 0;
  uint64_t crashes_injected_ = 0;
  uint64_t flaps_injected_ = 0;
  uint64_t partition_drops_ = 0;
  uint64_t tpm_faults_injected_ = 0;
};

}  // namespace bolted::faults

#endif  // SRC_FAULTS_FAULTS_H_
