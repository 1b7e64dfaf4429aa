#include "src/scenario/sharded.h"

#include <algorithm>

#include "src/core/enclave.h"  // core::NodeState values for final_states
#include "src/sim/shard.h"

namespace bolted::scenario {
namespace {

// Measurement ids.  v1 is the fleet's baseline firmware; v2 is the
// rollout target (whitelisted ahead of the reflash, the deterministic-
// build property); the compromised variant and the runtime implant are
// never whitelisted — attestation is what catches them.
constexpr uint32_t kMeasV1 = 1;
constexpr uint32_t kMeasV2 = 2;
constexpr uint32_t kMeasV2Bad = 3;
constexpr uint32_t kMeasImplant = 4;

constexpr uint32_t kFrameQuote = 1;
constexpr uint32_t kFrameVerdict = 2;
constexpr uint32_t kFrameRolloutGo = 3;
constexpr uint32_t kFrameRolloutAbort = 4;

constexpr uint32_t kVerifierRack = 0;

enum : uint8_t {
  kFree = static_cast<uint8_t>(core::NodeState::kFree),
  kProvisioning = static_cast<uint8_t>(core::NodeState::kAirlock),
  kAllocated = static_cast<uint8_t>(core::NodeState::kAllocated),
  kQuarantined = static_cast<uint8_t>(core::NodeState::kRejected),
};

struct NodeModel {
  uint8_t state = kFree;
  uint32_t flash = kMeasV1;    // firmware in SPI flash
  uint32_t reported = kMeasV1; // what quotes measure (implant when owned)
  uint32_t pending = kMeasV1;  // firmware the next provision boots
  uint32_t gen = 0;            // bumps on every release; stales in-flight work
  int64_t provision_start_ns = 0;
  int64_t quote_sent_ns = 0;
};

struct RackModel {
  std::vector<NodeModel> nodes;
  std::vector<std::string> failures;

  uint64_t provisions = 0;
  uint64_t quotes = 0;
  uint64_t churn_cycles = 0;
  uint64_t storm_reboots = 0;
  uint64_t upgrades = 0;
  uint64_t rollbacks = 0;
  uint64_t compromises = 0;
  uint64_t quarantines = 0;

  uint64_t prov_count = 0, prov_sum = 0, prov_max = 0;
  uint64_t att_count = 0, att_sum = 0, att_max = 0;

  // Rack-0 only: the staged-rollout controller.
  uint32_t canary_pending = 0;
  bool canary_failed = false;
  bool rollout_decided = false;
};

class Model {
 public:
  explicit Model(const ShardedScenarioConfig& config) : config_(config) {
    const uint64_t total =
        static_cast<uint64_t>(config.racks) * config.nodes_per_rack;
    tenant_of_.resize(total);
    for (uint64_t i = 0; i < total; ++i) {
      tenant_of_[i] = static_cast<uint8_t>(i % std::max(1u, config.tenants));
    }
    racks_.resize(config.racks);
    for (RackModel& rack : racks_) {
      rack.nodes.resize(config.nodes_per_rack);
    }
    upgrade_image_ = config.bad_image ? kMeasV2Bad : kMeasV2;
  }

  ShardedScenarioResult Run();

 private:
  uint64_t NodeId(uint32_t rack, uint32_t local) const {
    return static_cast<uint64_t>(rack) * config_.nodes_per_rack + local;
  }
  bool Whitelisted(uint32_t measurement) const {
    // v2 is pre-whitelisted only when a rollout is scheduled (the tenant
    // rebuilt it from source and pushed the digest ahead of the reflash).
    return measurement == kMeasV1 ||
           (measurement == kMeasV2 && config_.upgrade_at_ns > 0);
  }
  bool IsCanary(uint64_t id) const {
    return id < config_.canaries;  // the first rack-0 nodes
  }
  int64_t Jitter(sim::Rack& rack, int64_t bound_ns) {
    if (bound_ns <= 0) {
      return 0;
    }
    return static_cast<int64_t>(
        rack.sim().rng().NextBelow(static_cast<uint64_t>(bound_ns)));
  }
  void Fail(uint32_t rack, std::string detail) {
    RackModel& model = racks_[rack];
    if (model.failures.size() < 16) {  // cap the flood, keep the evidence
      model.failures.push_back(std::move(detail));
    }
  }

  void SendQuote(sim::Rack& rack, uint32_t local, uint32_t gen);
  void StartProvision(sim::Rack& rack, uint32_t local);
  void ReleaseNode(sim::Rack& rack, uint32_t local);
  void ScheduleContinuous(sim::Rack& rack, uint32_t local, uint32_t gen);
  void ApplyVerdict(sim::Rack& rack, const sim::CrossShardFrame& frame);
  void HandleQuote(sim::Rack& rack, const sim::CrossShardFrame& frame);
  void StartRollout(sim::Rack& rack);
  void RackRollout(sim::Rack& rack);
  void CanaryVerdictApplied(sim::Rack& rack, bool passed);
  void StormStep(sim::Rack& rack);
  void SweepStep(sim::Rack& rack);
  void ChurnStep(sim::Rack& rack, uint32_t local);
  void ScheduleNode(sim::ShardedFleet& fleet, uint32_t rack_index,
                    uint32_t local);

  const ShardedScenarioConfig config_;
  std::vector<uint8_t> tenant_of_;  // immutable after construction
  std::vector<RackModel> racks_;    // racks_[r] touched only by rack r
  uint32_t upgrade_image_ = kMeasV2;
  sim::ShardedFleet* fleet_ = nullptr;
};

void Model::StartProvision(sim::Rack& rack, uint32_t local) {
  RackModel& model = racks_[rack.index()];
  NodeModel& node = model.nodes[local];
  node.state = kProvisioning;
  node.flash = node.pending;
  node.reported = node.flash;  // a fresh boot sheds any runtime implant
  node.provision_start_ns = rack.sim().now().nanoseconds();
  ++node.gen;
  ++model.provisions;
  const uint32_t gen = node.gen;
  // Boot time: POST + image fetch + kexec, abstracted to a jittered mean.
  const int64_t boot =
      config_.provision_mean_ns / 2 + Jitter(rack, config_.provision_mean_ns);
  sim::Rack* rack_ptr = &rack;
  rack.sim().Schedule(sim::Duration::Nanoseconds(boot), [this, rack_ptr, local,
                                                         gen] {
    SendQuote(*rack_ptr, local, gen);
  });
}

void Model::SendQuote(sim::Rack& rack, uint32_t local, uint32_t gen) {
  RackModel& model = racks_[rack.index()];
  NodeModel& node = model.nodes[local];
  if (node.gen != gen || node.state == kFree || node.state == kQuarantined) {
    return;  // released or quarantined while the quote was in flight
  }
  node.quote_sent_ns = rack.sim().now().nanoseconds();
  ++model.quotes;
  const uint64_t id = NodeId(rack.index(), local);
  const uint64_t payload =
      (static_cast<uint64_t>(gen) << 32) |
      (static_cast<uint64_t>(tenant_of_[id]) << 24) | node.reported;
  rack.Send(kVerifierRack, fleet_->lookahead() + sim::Duration::Nanoseconds(
                                                     Jitter(rack, 2000)),
            kFrameQuote, /*bytes=*/1200, id, payload);
}

void Model::ReleaseNode(sim::Rack& rack, uint32_t local) {
  NodeModel& node = racks_[rack.index()].nodes[local];
  node.state = kFree;
  ++node.gen;  // stales continuous loops and in-flight verdicts
}

void Model::ScheduleContinuous(sim::Rack& rack, uint32_t local, uint32_t gen) {
  const int64_t next = config_.attest_interval_ns / 2 +
                       Jitter(rack, config_.attest_interval_ns);
  if (rack.sim().now().nanoseconds() + next > config_.horizon_ns) {
    return;  // the scenario horizon: polling stops, the run drains
  }
  sim::Rack* rack_ptr = &rack;
  rack.sim().Schedule(
      sim::Duration::Nanoseconds(next), [this, rack_ptr, local, gen] {
        NodeModel& node = racks_[rack_ptr->index()].nodes[local];
        if (node.gen != gen || node.state != kAllocated) {
          return;
        }
        SendQuote(*rack_ptr, local, gen);
        ScheduleContinuous(*rack_ptr, local, gen);
      });
}

void Model::HandleQuote(sim::Rack& rack, const sim::CrossShardFrame& frame) {
  // Runs on rack 0 (the verifier).  The whitelist and tenant table are
  // immutable, so this is pure: verdict = f(quote).
  const uint64_t id = frame.payload0;
  const uint32_t gen = static_cast<uint32_t>(frame.payload1 >> 32);
  const auto tenant = static_cast<uint8_t>((frame.payload1 >> 24) & 0xff);
  const auto measurement = static_cast<uint32_t>(frame.payload1 & 0xffffff);
  if (tenant != tenant_of_[id]) {
    // Invariant (a): a quote claiming another tenant's identity is the
    // model's cross-enclave frame.
    Fail(rack.index(), "quote for node " + std::to_string(id) +
                           " carries tenant " + std::to_string(tenant) +
                           ", owner is " + std::to_string(tenant_of_[id]));
    return;
  }
  const bool passed = Whitelisted(measurement);
  const auto dst_rack = static_cast<uint32_t>(id / config_.nodes_per_rack);
  const uint64_t payload = (static_cast<uint64_t>(gen) << 32) |
                           (passed ? 1u << 16 : 0u) | measurement;
  rack.Send(dst_rack, fleet_->lookahead() + sim::Duration::Nanoseconds(
                                                Jitter(rack, 2000)),
            kFrameVerdict, /*bytes=*/256, id, payload);
}

void Model::ApplyVerdict(sim::Rack& rack, const sim::CrossShardFrame& frame) {
  RackModel& model = racks_[rack.index()];
  const uint64_t id = frame.payload0;
  if (id / config_.nodes_per_rack != rack.index()) {
    Fail(rack.index(), "verdict for node " + std::to_string(id) +
                           " delivered to rack " + std::to_string(rack.index()));
    return;
  }
  const auto local = static_cast<uint32_t>(id % config_.nodes_per_rack);
  NodeModel& node = model.nodes[local];
  const uint32_t gen = static_cast<uint32_t>(frame.payload1 >> 32);
  const bool passed = (frame.payload1 & (1u << 16)) != 0;
  if (node.gen != gen) {
    return;  // stale: the node was released/requarantined meanwhile
  }
  const int64_t now_ns = rack.sim().now().nanoseconds();
  const auto att = static_cast<uint64_t>(now_ns - node.quote_sent_ns);
  ++model.att_count;
  model.att_sum += att;
  model.att_max = std::max(model.att_max, att);

  if (node.state == kProvisioning) {
    const bool canary_wave =
        IsCanary(id) && rack.index() == kVerifierRack && !model.rollout_decided &&
        model.canary_pending > 0 && node.flash == upgrade_image_;
    if (passed) {
      if (!Whitelisted(node.reported)) {
        Fail(rack.index(), "node " + std::to_string(id) +
                               " passed with unwhitelisted measurement");
      }
      node.state = kAllocated;
      const auto prov =
          static_cast<uint64_t>(now_ns - node.provision_start_ns);
      ++model.prov_count;
      model.prov_sum += prov;
      model.prov_max = std::max(model.prov_max, prov);
      if (node.flash == kMeasV2) {
        ++model.upgrades;
      }
      ScheduleContinuous(rack, local, node.gen);
    } else {
      // Invariant (c), abstracted: a rejected boot quarantines, rolls the
      // firmware back if the reflash caused it, and re-provisions — no
      // node may be left stranded.
      node.state = kQuarantined;
      if (node.flash == kMeasV2Bad || node.flash == kMeasV2) {
        ++model.rollbacks;
        node.pending = kMeasV1;
      } else {
        Fail(rack.index(), "node " + std::to_string(id) +
                               " rejected while booting baseline firmware");
        node.pending = kMeasV1;
      }
      sim::Rack* rack_ptr = &rack;
      rack.sim().Schedule(sim::Duration::Milliseconds(500),
                          [this, rack_ptr, local] {
                            ReleaseNode(*rack_ptr, local);
                            StartProvision(*rack_ptr, local);
                          });
    }
    if (canary_wave) {
      CanaryVerdictApplied(rack, passed);
    }
    return;
  }

  if (node.state == kAllocated && !passed) {
    // Continuous attestation caught a runtime compromise: quarantine,
    // then reclaim — the clean-abort/re-provision cycle.
    node.state = kQuarantined;
    ++model.quarantines;
    node.pending = node.flash;  // reflash not needed; reboot sheds the implant
    sim::Rack* rack_ptr = &rack;
    rack.sim().Schedule(sim::Duration::Milliseconds(500),
                        [this, rack_ptr, local] {
                          ReleaseNode(*rack_ptr, local);
                          StartProvision(*rack_ptr, local);
                        });
  }
}

void Model::CanaryVerdictApplied(sim::Rack& rack, bool passed) {
  RackModel& model = racks_[kVerifierRack];
  if (!passed) {
    model.canary_failed = true;
  }
  if (--model.canary_pending > 0) {
    return;
  }
  model.rollout_decided = true;
  // Broadcast the staged-rollout decision.  Lookahead-bounded frames to
  // every other rack; rack 0 handles its own share locally.
  const uint32_t kind =
      model.canary_failed ? kFrameRolloutAbort : kFrameRolloutGo;
  for (uint32_t r = 0; r < config_.racks; ++r) {
    if (r != kVerifierRack) {
      rack.Send(r, fleet_->lookahead() + sim::Duration::Nanoseconds(Jitter(
                                             rack, 2000)),
                kind, /*bytes=*/64, 0, 0);
    }
  }
  if (!model.canary_failed) {
    sim::Rack* rack_ptr = &rack;
    rack.sim().Schedule(sim::Duration::Microseconds(100),
                        [this, rack_ptr] { RackRollout(*rack_ptr); });
  }
}

void Model::StartRollout(sim::Rack& rack) {
  // Rack 0: upgrade the canaries first.
  RackModel& model = racks_[kVerifierRack];
  uint32_t started = 0;
  for (uint32_t local = 0;
       local < std::min(config_.canaries, config_.nodes_per_rack); ++local) {
    NodeModel& node = model.nodes[local];
    if (node.state != kAllocated) {
      continue;  // churned away right now; the fleet wave covers it
    }
    ReleaseNode(rack, local);
    node.pending = upgrade_image_;
    StartProvision(rack, local);
    ++started;
  }
  model.canary_pending = started;
  if (started == 0) {
    Fail(kVerifierRack, "rolling upgrade found no allocated canary");
    model.rollout_decided = true;
  }
}

void Model::RackRollout(sim::Rack& rack) {
  // The post-canary fleet wave for this rack's nodes, staggered so the
  // verifier sees a rolling stream instead of one synchronized burst.
  RackModel& model = racks_[rack.index()];
  int64_t stagger = 0;
  for (uint32_t local = 0; local < config_.nodes_per_rack; ++local) {
    if (rack.index() == kVerifierRack && IsCanary(NodeId(rack.index(), local))) {
      continue;
    }
    if (model.nodes[local].state != kAllocated ||
        model.nodes[local].flash != kMeasV1) {
      continue;
    }
    stagger += config_.arrival_spacing_ns;
    sim::Rack* rack_ptr = &rack;
    rack.sim().Schedule(
        sim::Duration::Nanoseconds(stagger), [this, rack_ptr, local] {
          NodeModel& node = racks_[rack_ptr->index()].nodes[local];
          if (node.state != kAllocated || node.flash != kMeasV1) {
            return;
          }
          ReleaseNode(*rack_ptr, local);
          node.pending = kMeasV2;
          StartProvision(*rack_ptr, local);
        });
  }
}

void Model::StormStep(sim::Rack& rack) {
  RackModel& model = racks_[rack.index()];
  for (uint32_t local = 0; local < config_.nodes_per_rack; ++local) {
    NodeModel& node = model.nodes[local];
    if (node.state != kAllocated ||
        rack.sim().rng().NextDouble() >= config_.storm_fraction) {
      continue;
    }
    ++model.storm_reboots;
    ReleaseNode(rack, local);
    StartProvision(rack, local);  // mass reboot -> attestation storm
  }
}

void Model::SweepStep(sim::Rack& rack) {
  RackModel& model = racks_[rack.index()];
  for (uint32_t local = 0; local < config_.nodes_per_rack; ++local) {
    NodeModel& node = model.nodes[local];
    if (node.state != kAllocated ||
        rack.sim().rng().NextDouble() >= config_.compromise_fraction) {
      continue;
    }
    // Runtime compromise: the next continuous quote measures the implant.
    node.reported = kMeasImplant;
    ++model.compromises;
  }
}

void Model::ChurnStep(sim::Rack& rack, uint32_t local) {
  const int64_t now_ns = rack.sim().now().nanoseconds();
  if (now_ns >= config_.churn_end_ns || now_ns >= config_.horizon_ns) {
    return;
  }
  RackModel& model = racks_[rack.index()];
  NodeModel& node = model.nodes[local];
  if (node.state == kAllocated &&
      rack.sim().rng().NextDouble() < config_.churn_release_fraction) {
    ++model.churn_cycles;
    ReleaseNode(rack, local);
    sim::Rack* rack_ptr = &rack;
    rack.sim().Schedule(
        sim::Duration::Nanoseconds(config_.churn_hold_ns / 4 +
                                   Jitter(rack, config_.churn_hold_ns / 2)),
        [this, rack_ptr, local] { StartProvision(*rack_ptr, local); });
  }
  sim::Rack* rack_ptr = &rack;
  rack.sim().Schedule(sim::Duration::Nanoseconds(
                          config_.churn_hold_ns / 2 +
                          Jitter(rack, config_.churn_hold_ns)),
                      [this, rack_ptr, local] { ChurnStep(*rack_ptr, local); });
}

void Model::ScheduleNode(sim::ShardedFleet& fleet, uint32_t rack_index,
                         uint32_t local) {
  sim::Rack& rack = fleet.rack(rack_index);
  // Staggered arrival: nodes provision in a rolling wave, never lockstep.
  const int64_t arrive =
      1 + static_cast<int64_t>(local) * config_.arrival_spacing_ns +
      static_cast<int64_t>(rack_index) * (config_.arrival_spacing_ns / 7 + 1);
  sim::Rack* rack_ptr = &rack;
  rack.sim().Schedule(sim::Duration::Nanoseconds(arrive),
                      [this, rack_ptr, local] { StartProvision(*rack_ptr, local); });
  if (config_.churn_end_ns > config_.churn_start_ns) {
    rack.sim().Schedule(
        sim::Duration::Nanoseconds(config_.churn_start_ns + arrive),
        [this, rack_ptr, local] { ChurnStep(*rack_ptr, local); });
  }
}

ShardedScenarioResult Model::Run() {
  sim::ShardOptions options;
  options.racks = config_.racks;
  options.shards = config_.shards;
  options.workers = config_.workers;
  options.seed = config_.seed;
  sim::ShardedFleet fleet(options);
  fleet_ = &fleet;

  fleet.set_frame_handler([this](sim::Rack& rack,
                                 const sim::CrossShardFrame& frame) {
    switch (frame.kind) {
      case kFrameQuote:
        HandleQuote(rack, frame);
        break;
      case kFrameVerdict:
        ApplyVerdict(rack, frame);
        break;
      case kFrameRolloutGo:
        RackRollout(rack);
        break;
      case kFrameRolloutAbort:
        break;  // canaries already rolled back; this rack never upgraded
      default:
        Fail(rack.index(), "unknown frame kind " + std::to_string(frame.kind));
    }
  });

  for (uint32_t r = 0; r < config_.racks; ++r) {
    for (uint32_t n = 0; n < config_.nodes_per_rack; ++n) {
      ScheduleNode(fleet, r, n);
    }
    sim::Rack* rack_ptr = &fleet.rack(r);
    if (config_.storm_at_ns > 0) {
      rack_ptr->sim().Schedule(sim::Duration::Nanoseconds(config_.storm_at_ns),
                               [this, rack_ptr] { StormStep(*rack_ptr); });
    }
    if (config_.sweep_at_ns > 0) {
      rack_ptr->sim().Schedule(sim::Duration::Nanoseconds(config_.sweep_at_ns),
                               [this, rack_ptr] { SweepStep(*rack_ptr); });
    }
  }
  if (config_.upgrade_at_ns > 0) {
    sim::Rack* rack0 = &fleet.rack(kVerifierRack);
    rack0->sim().Schedule(sim::Duration::Nanoseconds(config_.upgrade_at_ns),
                          [this, rack0] { StartRollout(*rack0); });
  }

  // Run to drain: every schedule chain is bounded by horizon_ns (churn
  // and continuous attestation stop there), so the queues empty once the
  // in-flight lifecycles complete.
  fleet.Run();

  ShardedScenarioResult result;
  result.fleet_digest = fleet.fleet_digest();
  int64_t final_ns = 0;
  for (uint32_t r = 0; r < config_.racks; ++r) {
    result.rack_digests.push_back(fleet.rack_digest(r));
    final_ns = std::max(final_ns, fleet.rack(r).sim().now().nanoseconds());
  }
  result.final_time_ns = final_ns;
  result.events = fleet.events_processed();
  result.frames_routed = fleet.frames_routed();
  result.windows = fleet.windows();
  result.rack_runs = fleet.rack_runs();

  for (uint32_t r = 0; r < config_.racks; ++r) {
    RackModel& model = racks_[r];
    for (const std::string& failure : model.failures) {
      result.failures.push_back("rack " + std::to_string(r) + ": " + failure);
    }
    for (uint32_t n = 0; n < config_.nodes_per_rack; ++n) {
      const NodeModel& node = model.nodes[n];
      result.final_states.push_back(node.state);
      result.final_firmware.push_back(node.flash);
      // Final convergence: every node allocated on whitelisted firmware.
      if (node.state != kAllocated && result.failures.size() < 32) {
        result.failures.push_back(
            "node " + std::to_string(NodeId(r, n)) +
            " did not converge to allocated (state " +
            std::to_string(node.state) + ")");
      }
      if (node.state == kAllocated && !Whitelisted(node.reported) &&
          result.failures.size() < 32) {
        result.failures.push_back("node " + std::to_string(NodeId(r, n)) +
                                  " allocated with unwhitelisted measurement");
      }
    }
    result.provisions += model.provisions;
    result.quotes += model.quotes;
    result.churn_cycles += model.churn_cycles;
    result.storm_reboots += model.storm_reboots;
    result.upgrades += model.upgrades;
    result.rollbacks += model.rollbacks;
    result.compromises += model.compromises;
    result.quarantines += model.quarantines;
    result.provision_latency_count += model.prov_count;
    result.provision_latency_sum_ns += model.prov_sum;
    result.provision_latency_max_ns =
        std::max(result.provision_latency_max_ns, model.prov_max);
    result.attest_latency_count += model.att_count;
    result.attest_latency_sum_ns += model.att_sum;
    result.attest_latency_max_ns =
        std::max(result.attest_latency_max_ns, model.att_max);
  }

  // Non-vacuousness: a phase that was scheduled must have acted.
  if (result.provisions == 0) {
    result.failures.push_back("scenario provisioned nothing");
  }
  if (config_.storm_at_ns > 0 && result.storm_reboots == 0) {
    result.failures.push_back("reboot storm rebooted nothing");
  }
  if (config_.sweep_at_ns > 0 &&
      (result.compromises == 0 || result.quarantines < result.compromises)) {
    result.failures.push_back(
        "quarantine sweep: " + std::to_string(result.compromises) +
        " compromises but only " + std::to_string(result.quarantines) +
        " quarantines");
  }
  if (config_.upgrade_at_ns > 0) {
    if (config_.bad_image) {
      if (result.rollbacks == 0) {
        result.failures.push_back("bad canary image triggered no rollback");
      }
      if (result.upgrades > 0) {
        result.failures.push_back(
            "bad image aborted the rollout but " +
            std::to_string(result.upgrades) + " nodes upgraded");
      }
    } else if (result.upgrades == 0) {
      result.failures.push_back("rolling upgrade upgraded nothing");
    }
  }

  fleet_ = nullptr;
  return result;
}

}  // namespace

ShardedScenarioResult RunShardedScenario(const ShardedScenarioConfig& config) {
  Model model(config);
  return model.Run();
}

}  // namespace bolted::scenario
