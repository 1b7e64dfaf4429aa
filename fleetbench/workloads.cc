// The four fleet lifecycle workloads.  Each one drives the simulator only
// through the public APIs of core::Cloud, core::Enclave, keylime::Verifier,
// net::IpsecContext and scenario::RunShardedScenario, checks its outputs,
// and fills a Report with host-time, simulated-time and per-layer metrics.
//
// A workload's inputs come from --seed; its size is fixed, so every
// simulated metric and the digest are a function of the seed alone.  Host
// time only decides how many times the timed unit (a rollout, a poll round,
// a sharded run) repeats, and repetitions after the first must reproduce
// its digest.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "src/core/cloud.h"
#include "src/core/enclave.h"
#include "src/obs/obs.h"
#include "src/scenario/sharded.h"

namespace fleetbench {
namespace {

namespace core = bolted::core;
namespace crypto = bolted::crypto;
namespace keylime = bolted::keylime;
namespace machine = bolted::machine;
namespace net = bolted::net;
namespace obs = bolted::obs;
namespace scenario = bolted::scenario;
namespace sim = bolted::sim;

// Boot working set per node: the fleet-scale calibration of
// bench/fleet_provisioning (the paper's 500 MiB would make a 1024-node
// rollout take minutes of host time without exercising anything new).
// The seed trims up to kBootSetJitter off it, in 4 KiB pages: it is the
// tenant image's property that moves simulated provisioning time when the
// rollout order alone does not, and it never crosses a 4 MiB chunk boundary.
constexpr uint64_t kBootSetBytes = 32ull << 20;
constexpr uint64_t kBootSetJitterPages = 128;  // 512 KiB

uint64_t BootSetBytes(InputRng& rng) {
  return kBootSetBytes - 4096 * rng.Below(kBootSetJitterPages + 1);
}
// Rollouts advance in slices so the runner can stop as soon as the last
// provision lands even when continuous attestation keeps the queue busy.
constexpr sim::Duration kRolloutSlice = sim::Duration::Seconds(5);
constexpr sim::Duration kRolloutCap = sim::Duration::Seconds(6 * 3600);

uint64_t Mix(uint64_t a, uint64_t b) {
  InputRng rng(a ^ (b * 0x9e3779b97f4a7c15ull));
  return rng.Next();
}

// Every per-layer metric, with its unit.  Each workload reports all of
// them; a layer the workload does not exercise reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.run_s", "s"},
    {"net.messages_sent", "count"},
    {"net.frames_delivered", "count"},
    {"net.frames_per_op", "count"},
    {"net.drops", "count"},
    {"net.topology_epochs", "count"},
    {"rpc.retries", "count"},
    {"rpc.timeouts", "count"},
    {"ipsec.messages", "count"},
    {"ipsec.bytes_sealed", "B"},
    {"ipsec.seal_s", "s"},
    {"ipsec.open_s", "s"},
    {"ipsec.open_failures", "count"},
    {"keylime.verifications", "count"},
    {"keylime.round_s", "s"},
    {"keylime.batched_ratio", "ratio"},
    {"keylime.aik_cache_hit_ratio", "ratio"},
    {"keylime.boot_log_cache_hit_ratio", "ratio"},
    {"keylime.batch_bisections", "count"},
    {"keylime.transient_retries", "count"},
    {"keylime.violations", "count"},
    {"chunk.hit_ratio", "ratio"},
    {"chunk.origin_fetches", "count"},
    {"chunk.coalesced", "count"},
    {"chunk.peer_redirects", "count"},
    {"storage.osd_bytes_per_node", "B"},
    {"core.cloud_build_s", "s"},
    {"core.rollout_s", "s"},
    {"core.provisions", "count"},
    {"core.releases", "count"},
    {"core.provision_failures", "count"},
    {"shard.windows", "count"},
    {"shard.events_per_window", "count"},
    {"shard.frames_routed", "count"},
    {"shard.ring_spills", "count"},
    {"shard.oracle_s", "s"},
    {"shard.speedup", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"host.raw_setup_s", "s"},
    {"host.raw_us_per_op", "us"},
    {"host.probe_ratio", "ratio"},
    {"failed_ops_ratio", "ratio"},
    {"provision_sim_s_p50", "s"},
    {"provision_sim_s_p90", "s"},
    {"provision_sim_s_p99", "s"},
    {"fleet_ready_sim_s", "s"},
    {"attest_round_sim_ms", "ms"},
    {"tenant_msg_sim_us_p50", "us"},
    {"tenant_msg_sim_us_p99", "us"},
};

void SetPerLayerDefaults(Report& report) {
  for (const MetricSpec& spec : kPerLayer) {
    report.Set(spec.name, 0, spec.unit);
  }
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Distribution(const char* name, const std::vector<double>& v) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: median of %zu (min %.6g, q1 %.6g, q3 %.6g, max %.6g)", name, v.size(),
                Percentile(v, 0), Percentile(v, 25), Percentile(v, 75), Percentile(v, 100));
  return line;
}

// The end-to-end metrics every workload reports (host times rescaled by
// the probe, their raw medians beside them as per-layer metrics), plus the
// failure ratio over everything it attempted.
void SetEndToEnd(Report& report, const HostSamples& setup, const HostSamples& units,
                 double provision_sim_s_mean) {
  report.Set("setup_s", Median(setup.scaled), "s");
  report.Set("host_us_per_op", Median(units.scaled), "us");
  report.Set("host.raw_setup_s", Median(setup.raw), "s");
  report.Set("host.raw_us_per_op", Median(units.raw), "us");
  report.Set("host.probe_ratio", Median(units.probe_ratio), "ratio");
  report.Note(Distribution("setup_s (probe-rescaled set-ups)", setup.scaled));
  report.Note(Distribution("host_us_per_op (probe-rescaled timed units)", units.scaled));
  report.Note(Distribution("host.raw_us_per_op", units.raw));
  report.Note(Distribution("host.probe_ratio", units.probe_ratio));
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("provision_sim_s_mean", provision_sim_s_mean, "s");
  report.Set("failed_ops_ratio",
             Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)),
             "ratio");
}

// Traced runs alternate traced and untraced timed units; the ratio of
// their medians is what tracing costs.
void SetOverhead(Report& report, const HostSamples& traced, const HostSamples& untraced) {
  if (!traced.empty() && !untraced.empty()) {
    report.Set("trace.overhead_ratio", Median(traced.scaled) / Median(untraced.scaled),
               "ratio");
  }
}

// Drives a Simulation and charges the host time to the sim layer.
class SimRunner {
 public:
  explicit SimRunner(Spans& spans) : spans_(spans) {}

  void Run(sim::Simulation& sim, int64_t op) {
    Spans::Scope span(spans_, "sim.Run", op);
    const auto start = Clock::now();
    const double probe_before = ProbeTotalSeconds();
    sim.Run();
    run_s_ += SecondsSince(start) - (ProbeTotalSeconds() - probe_before);
  }
  void RunUntil(sim::Simulation& sim, sim::Time horizon, int64_t op) {
    Spans::Scope span(spans_, "sim.RunUntil", op);
    const auto start = Clock::now();
    const double probe_before = ProbeTotalSeconds();
    sim.RunUntil(horizon);
    run_s_ += SecondsSince(start) - (ProbeTotalSeconds() - probe_before);
  }
  double run_s() const { return run_s_; }
  void reset() { run_s_ = 0; }

 private:
  Spans& spans_;
  double run_s_ = 0;
};

core::CloudConfig FleetConfig(int machines, int racks, bool chunked, int airlocks,
                              InputRng& rng) {
  core::CloudConfig config;
  config.num_machines = machines;
  config.linuxboot_in_flash = true;
  config.racks = racks;
  config.chunked_distribution = chunked;
  config.cal.boot_read_bytes = BootSetBytes(rng);
  config.cal.max_concurrent_airlocks = airlocks;
  config.seed = rng.Next();
  return config;
}

// One simulated datacenter and its tenants.  Member order matters: the
// simulation (inside `cloud`) destroys suspended coroutine frames when it
// dies, and those frames reference the rollout window and outcomes, so
// those are declared first and die last; enclaves die before the cloud.
struct Fleet {
  std::unique_ptr<sim::Semaphore> slots;
  std::vector<core::ProvisionOutcome> outcomes;
  size_t done = 0;
  sim::Time last_done;
  // Host time per op over every `window` completions, each rescaled by the
  // probe readings around it.  With `window` equal to the closed loop's
  // width, one window is one full turn of the loop.
  size_t window = 0;
  Clock::time_point window_start;
  std::optional<Bracket> bracket;
  HostSamples windows;
  std::vector<std::string> names;
  std::unique_ptr<core::Cloud> cloud;
  std::vector<std::unique_ptr<core::Enclave>> enclaves;
};

struct ProvisionItem {
  core::Enclave* enclave;
  size_t machine;
};

std::unique_ptr<Fleet> BuildFleet(const core::CloudConfig& config,
                                  const std::vector<core::TrustProfile>& tenants,
                                  Spans& spans, int64_t op) {
  auto fleet = std::make_unique<Fleet>();
  {
    Spans::Scope span(spans, "core.Cloud", op);
    fleet->cloud = std::make_unique<core::Cloud>(config);
  }
  for (size_t i = 0; i < fleet->cloud->num_machines(); ++i) {
    fleet->names.push_back(fleet->cloud->node_name(i));
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    Spans::Scope span(spans, "core.Enclave", op);
    fleet->enclaves.push_back(std::make_unique<core::Enclave>(
        *fleet->cloud, "tenant" + std::to_string(t), tenants[t], Mix(config.seed, t)));
  }
  return fleet;
}

sim::Task ProvisionOne(Fleet* fleet, core::Enclave* enclave, size_t k, size_t machine) {
  co_await fleet->slots->Acquire();
  sim::SemaphoreGuard slot(*fleet->slots);
  co_await enclave->ProvisionNode(fleet->names[machine], &fleet->outcomes[k]);
  ++fleet->done;
  fleet->last_done = fleet->cloud->sim().now();
  if (fleet->done % fleet->window == 0) {
    const double unit_s = SecondsSince(fleet->window_start);
    fleet->windows.Add(unit_s / static_cast<double>(fleet->window) * 1e6,
                       fleet->bracket->Next());
    fleet->window_start = Clock::now();
  }
}

struct RolloutResult {
  std::vector<double> totals_s;  // PhaseTrace::total() of each success
  double ready_sim_s = 0;        // first spawn to last completion
  double host_s = 0;  // probe time excluded
  uint64_t failures = 0;
  std::string first_failure;
};

// Provisions `items` as a closed loop with `inflight` provisions in flight
// (the next starts when one finishes) and runs until every one finished.
RolloutResult Rollout(Fleet& fleet, const std::vector<ProvisionItem>& items, int inflight,
                      SimRunner& runner, int64_t op) {
  sim::Simulation& sim = fleet.cloud->sim();
  fleet.slots = std::make_unique<sim::Semaphore>(sim, inflight);
  fleet.outcomes.assign(items.size(), core::ProvisionOutcome{});
  fleet.done = 0;
  // At least 16 windows, so even a short rollout reads the probe often.
  fleet.window = std::clamp<size_t>(items.size() / 16, 1, static_cast<size_t>(inflight));
  fleet.windows = HostSamples{};
  fleet.bracket.emplace();
  const sim::Time start = sim.now();
  for (size_t k = 0; k < items.size(); ++k) {
    sim.Spawn(ProvisionOne(&fleet, items[k].enclave, k, items[k].machine));
  }
  RolloutResult result;
  const auto host_start = Clock::now();
  const double probe_before = ProbeTotalSeconds();
  fleet.window_start = host_start;
  while (fleet.done < items.size() && sim.pending_events() > 0 &&
         sim.now() - start < kRolloutCap) {
    runner.RunUntil(sim, sim.now() + kRolloutSlice, op);
  }
  result.host_s = SecondsSince(host_start) - (ProbeTotalSeconds() - probe_before);
  result.ready_sim_s = (fleet.last_done - start).ToSecondsF();
  for (size_t k = 0; k < items.size(); ++k) {
    const core::ProvisionOutcome& outcome = fleet.outcomes[k];
    if (outcome.success) {
      result.totals_s.push_back(outcome.trace.total().ToSecondsF());
    } else {
      ++result.failures;
      if (result.first_failure.empty()) {
        result.first_failure = fleet.names[items[k].machine] + ": " +
                               (outcome.failure.empty() ? "did not finish" : outcome.failure);
      }
    }
  }
  return result;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

uint64_t FleetDigest(core::Cloud& cloud) {
  return Mix(cloud.sim().trace_digest(), cloud.fabric().frame_digest());
}

struct NetCounters {
  uint64_t messages_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t drops = 0;
  uint64_t epoch = 0;
};

NetCounters ReadNet(core::Cloud& cloud) {
  NetCounters c;
  net::Network& fabric = cloud.fabric();
  // Addresses are dense from 1 and endpoints are never removed.
  for (net::Address a = 1; net::Endpoint* e = fabric.FindEndpoint(a); ++a) {
    c.messages_sent += e->messages_sent();
  }
  c.frames_delivered = fabric.frames_delivered();
  c.drops = fabric.total_drops();
  c.epoch = fabric.topology_epoch();
  return c;
}

void SetNet(Report& report, const NetCounters& before, const NetCounters& after,
            double ops) {
  const auto frames = static_cast<double>(after.frames_delivered - before.frames_delivered);
  report.Set("net.messages_sent",
             static_cast<double>(after.messages_sent - before.messages_sent), "count");
  report.Set("net.frames_delivered", frames, "count");
  report.Set("net.frames_per_op", Ratio(frames, ops), "count");
  report.Set("net.drops", static_cast<double>(after.drops - before.drops), "count");
  report.Set("net.topology_epochs", static_cast<double>(after.epoch - before.epoch),
             "count");
}

void SetRpc(Report& report, const obs::Registry& registry) {
  report.Set("rpc.retries", static_cast<double>(registry.counter("rpc.retries")), "count");
  report.Set("rpc.timeouts", static_cast<double>(registry.counter("rpc.timeouts")),
             "count");
  report.obs_json = registry.MetricsJson();
}

struct KeylimeCounters {
  double verifications = 0;
  double batched = 0;
  double aik_hits = 0;
  double aik_misses = 0;
  double boot_hits = 0;
  double boot_misses = 0;
  double bisections = 0;
  double transient = 0;
  double violations = 0;
};

KeylimeCounters ReadKeylime(const std::vector<keylime::Verifier*>& verifiers) {
  KeylimeCounters c;
  for (const keylime::Verifier* v : verifiers) {
    c.verifications += static_cast<double>(v->verifications());
    c.batched += static_cast<double>(v->batched_verifications());
    c.aik_hits += static_cast<double>(v->aik_cache_hits());
    c.aik_misses += static_cast<double>(v->aik_cache_misses());
    c.boot_hits += static_cast<double>(v->boot_log_cache_hits());
    c.boot_misses += static_cast<double>(v->boot_log_cache_misses());
    c.bisections += static_cast<double>(v->batch_stats().bisections);
    c.transient += static_cast<double>(v->transient_retries());
    c.violations += static_cast<double>(v->violations());
  }
  return c;
}

KeylimeCounters Delta(const KeylimeCounters& a, const KeylimeCounters& b) {
  KeylimeCounters d;
  d.verifications = b.verifications - a.verifications;
  d.batched = b.batched - a.batched;
  d.aik_hits = b.aik_hits - a.aik_hits;
  d.aik_misses = b.aik_misses - a.aik_misses;
  d.boot_hits = b.boot_hits - a.boot_hits;
  d.boot_misses = b.boot_misses - a.boot_misses;
  d.bisections = b.bisections - a.bisections;
  d.transient = b.transient - a.transient;
  d.violations = b.violations - a.violations;
  return d;
}

void SetKeylime(Report& report, const KeylimeCounters& d) {
  report.Set("keylime.verifications", d.verifications, "count");
  report.Set("keylime.batched_ratio", Ratio(d.batched, d.verifications), "ratio");
  report.Set("keylime.aik_cache_hit_ratio", Ratio(d.aik_hits, d.aik_hits + d.aik_misses),
             "ratio");
  report.Set("keylime.boot_log_cache_hit_ratio",
             Ratio(d.boot_hits, d.boot_hits + d.boot_misses), "ratio");
  report.Set("keylime.batch_bisections", d.bisections, "count");
  report.Set("keylime.transient_retries", d.transient, "count");
  report.Set("keylime.violations", d.violations, "count");
}

void SetStorage(Report& report, core::Cloud& cloud, double nodes) {
  double served = 0;
  double local = 0;
  double origin = 0;
  double coalesced = 0;
  double redirects = 0;
  for (size_t c = 0; c < cloud.num_rack_chunk_caches(); ++c) {
    const auto& s = cloud.rack_chunk_cache(c).stats();
    served += static_cast<double>(s.hits + s.coalesced + s.origin_fetches + s.peer_redirects);
    local += static_cast<double>(s.hits + s.coalesced + s.peer_redirects);
    origin += static_cast<double>(s.origin_fetches);
    coalesced += static_cast<double>(s.coalesced);
    redirects += static_cast<double>(s.peer_redirects);
  }
  report.Set("chunk.hit_ratio", Ratio(local, served), "ratio");
  report.Set("chunk.origin_fetches", origin, "count");
  report.Set("chunk.coalesced", coalesced, "count");
  report.Set("chunk.peer_redirects", redirects, "count");
  double osd = 0;
  for (int h = 0; h < cloud.ceph().config().num_osd_hosts; ++h) {
    osd += cloud.ceph().osd_resource(h).total_served();
  }
  report.Set("storage.osd_bytes_per_node", Ratio(osd, nodes), "B");
}

// Sets p50/p90/p99 of a provisioning-time sample and notes its size.
void SetProvisionPercentiles(Report& report, const std::vector<double>& totals_s) {
  SetPercentile(report, "provision_sim_s_p50", totals_s, 50, "s");
  SetPercentile(report, "provision_sim_s_p90", totals_s, 90, "s");
  SetPercentile(report, "provision_sim_s_p99", totals_s, 99, "s");
}

// A set-up that includes a rollout lasts seconds, so it is rescaled by the
// median of the probes read inside its rollout windows.
void AddSetup(HostSamples& setup, double seconds, const HostSamples& windows) {
  setup.Add(seconds, Median(windows.probe_ratio) * kProbeNominalSeconds);
}

void GateRollout(Report& report, const RolloutResult& r, const char* what) {
  report.Gate(r.failures == 0, std::string(what) + ": " + std::to_string(r.failures) +
                                   " provisions failed, first " + r.first_failure);
}

}  // namespace

// --- boot_storm --------------------------------------------------------------
// 1024 Alice nodes on 8 racks through the classic iSCSI boot, 64 in flight.
// Each repetition rolls out the whole fleet on a freshly built cloud; the
// timed units are its windows of 64 completions, and one op is one
// provisioned node.
void RunBootStorm(const Options& options, Spans& spans, Report& report) {
  SetPerLayerDefaults(report);
  const int machines = options.small ? 64 : 1024;
  const int racks = options.small ? 2 : 8;
  const int inflight = options.small ? 16 : 64;
  const size_t min_reps = options.trace ? 2 : 3;

  InputRng rng(options.seed);
  const std::vector<size_t> order = Permutation(static_cast<size_t>(machines), rng);
  const core::CloudConfig config = FleetConfig(machines, racks, /*chunked=*/false,
                                               inflight, rng);

  SimRunner runner(spans);
  HostSamples setup;
  // A cloud builds in tens of milliseconds, so set-up time also samples
  // builds beyond the one each rollout needs.
  for (int b = 0; b < 6; ++b) {
    const auto start = Clock::now();
    std::unique_ptr<Fleet> fleet =
        BuildFleet(config, {core::TrustProfile::Alice()}, spans, -1 - b);
    setup.AddProbed(SecondsSince(start));
  }
  std::vector<double> rollout_s;
  // Timed units: host time per op over each closed-loop window of
  // `inflight` completions, ~16 per rollout.
  HostSamples untraced;
  HostSamples traced_units;
  double timed_s = 0;
  for (size_t rep = 0;; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const auto build_start = Clock::now();
    std::unique_ptr<Fleet> fleet =
        BuildFleet(config, {core::TrustProfile::Alice()}, spans,
                   static_cast<int64_t>(rep));
    setup.AddProbed(SecondsSince(build_start));
    core::Cloud& cloud = *fleet->cloud;
    std::unique_ptr<obs::Registry> registry;
    if (traced) {
      registry = std::make_unique<obs::Registry>(cloud.sim());
    }

    std::vector<ProvisionItem> items;
    for (const size_t m : order) {
      items.push_back({fleet->enclaves[0].get(), m});
    }
    const NetCounters net_before = ReadNet(cloud);
    runner.reset();
    const RolloutResult r = Rollout(*fleet, items, inflight, runner, static_cast<int64_t>(rep));
    (traced ? traced_units : untraced).Append(fleet->windows);
    if (!traced) {
      rollout_s.push_back(r.host_s);
    }
    timed_s += r.host_s;
    report.attempted += items.size();
    report.failed += r.failures;
    GateRollout(report, r, "boot_storm rollout");
    const uint64_t digest = FleetDigest(cloud);

    if (rep == 0) {
      report.digest = digest;
      const double n = static_cast<double>(machines);
      report.Set("provision_sim_s_mean", Mean(r.totals_s), "s");
      SetProvisionPercentiles(report, r.totals_s);
      report.Set("fleet_ready_sim_s", r.ready_sim_s, "s");
      const auto events = static_cast<double>(cloud.sim().events_processed());
      report.Set("sim.events", events, "count");
      report.Set("sim.events_per_op", events / n, "count");
      report.Set("sim.run_s", runner.run_s(), "s");
      SetNet(report, net_before, ReadNet(cloud), n);
      SetStorage(report, cloud, n);
      report.Set("core.provisions", n, "count");
      report.Set("core.provision_failures", static_cast<double>(r.failures), "count");
    } else {
      report.Gate(digest == report.digest,
                  "boot_storm: repeated rollout diverged from the first (digest)");
    }
    if (registry != nullptr) {
      SetRpc(report, *registry);
    }
    if (r.failures != 0 || (rep + 1 >= min_reps && timed_s >= options.seconds)) {
      break;
    }
  }

  SetEndToEnd(report, setup, untraced, report.metrics().at("provision_sim_s_mean").value);
  report.Set("core.cloud_build_s", Median(setup.raw), "s");
  report.Set("core.rollout_s", Median(rollout_s), "s");
  SetOverhead(report, traced_units, untraced);
}

// --- attest_fleet ------------------------------------------------------------
// 1024 Bob nodes, chunked boot, 64 airlocks; set-up is the attested
// rollout.  The timed unit is one Verifier::VerifyFleet round over the
// enclave (batch 64, 4 workers); one op is one node-round.
void RunAttestFleet(const Options& options, Spans& spans, Report& report) {
  SetPerLayerDefaults(report);
  const int machines = options.small ? 64 : 1024;
  const int racks = options.small ? 2 : 8;
  const int inflight = options.small ? 16 : 64;
  const int setups = options.small ? 2 : 3;
  const size_t min_rounds = options.small ? 6 : 40;

  InputRng rng(options.seed);
  const std::vector<size_t> order = Permutation(static_cast<size_t>(machines), rng);
  const core::CloudConfig config = FleetConfig(machines, racks, /*chunked=*/true,
                                               inflight, rng);

  SimRunner runner(spans);
  std::unique_ptr<Fleet> fleet;
  HostSamples setup;
  std::vector<double> build_s;
  std::vector<double> rollout_s;
  uint64_t rollout_digest = 0;
  for (int s = 0; s < setups; ++s) {
    fleet.reset();  // one fleet alive at a time keeps peak memory honest
    const auto start = Clock::now();
    fleet = BuildFleet(config, {core::TrustProfile::Bob()}, spans, s);
    build_s.push_back(SecondsSince(start));
    std::vector<ProvisionItem> items;
    for (const size_t m : order) {
      items.push_back({fleet->enclaves[0].get(), m});
    }
    const RolloutResult r = Rollout(*fleet, items, inflight, runner, s);
    AddSetup(setup, build_s.back() + r.host_s, fleet->windows);
    rollout_s.push_back(r.host_s);
    report.attempted += items.size();
    report.failed += r.failures;
    GateRollout(report, r, "attest_fleet rollout");
    if (r.failures != 0) {
      return;
    }
    const uint64_t digest = FleetDigest(*fleet->cloud);
    if (s == 0) {
      rollout_digest = digest;
      report.Set("provision_sim_s_mean", Mean(r.totals_s), "s");
      SetProvisionPercentiles(report, r.totals_s);
      report.Set("fleet_ready_sim_s", r.ready_sim_s, "s");
      SetStorage(report, *fleet->cloud, machines);
      report.Set("core.provisions", machines, "count");
    } else {
      report.Gate(digest == rollout_digest,
                  "attest_fleet: repeated rollout diverged from the first (digest)");
    }
  }

  core::Cloud& cloud = *fleet->cloud;
  sim::Simulation& sim = cloud.sim();
  keylime::Verifier& verifier = fleet->enclaves[0]->verifier();
  verifier.SetFleetOptions({.workers = 4, .batch_size = 64});
  const std::vector<std::string> names = fleet->enclaves[0]->members();
  std::vector<keylime::VerificationResult> results(names.size());
  report.Gate(names.size() == static_cast<size_t>(machines),
              "attest_fleet: enclave is missing members after the rollout");

  // The registry stays detached except during traced rounds.
  std::unique_ptr<obs::Registry> registry;
  if (options.trace) {
    registry = std::make_unique<obs::Registry>(sim);
    sim.set_observer(nullptr);
  }
  auto round = [&]() -> sim::Task {
    co_await verifier.VerifyFleet(names, results.data());
  };

  const KeylimeCounters kl_before = ReadKeylime({&verifier});
  const NetCounters net_before = ReadNet(cloud);
  const uint64_t events_before = sim.events_processed();
  runner.reset();
  std::vector<double> round_sim_ms;
  std::vector<double> round_s;
  HostSamples untraced;
  HostSamples traced_units;
  const auto node_rounds = static_cast<double>(names.size());
  Bracket bracket;
  double timed_s = 0;
  for (size_t r = 0;; ++r) {
    const bool traced = options.trace && r % 2 == 1;
    sim.set_observer(traced ? registry.get() : nullptr);
    const sim::Time sim_start = sim.now();
    const auto start = Clock::now();
    {
      Spans::Scope span(spans, "keylime.VerifyFleet", static_cast<int64_t>(r));
      sim.Spawn(round());
      runner.Run(sim, static_cast<int64_t>(r));
    }
    const double host_s = SecondsSince(start);
    (traced ? traced_units : untraced).Add(host_s / node_rounds * 1e6, bracket.Next());
    if (!traced) {
      round_s.push_back(host_s);
    }
    timed_s += host_s;
    size_t failed = 0;
    for (const keylime::VerificationResult& v : results) {
      failed += v.passed ? 0 : 1;
    }
    report.attempted += names.size();
    report.failed += failed;
    report.Gate(failed == 0, "attest_fleet: round " + std::to_string(r) + " had " +
                                 std::to_string(failed) + " failed verdicts");
    if (r < min_rounds) {
      round_sim_ms.push_back((sim.now() - sim_start).ToMillisecondsF());
    }
    if (r + 1 == min_rounds) {
      report.digest = Mix(rollout_digest, FleetDigest(cloud));
      const double ops = static_cast<double>(min_rounds * names.size());
      const auto events = static_cast<double>(sim.events_processed() - events_before);
      report.Set("sim.events", events, "count");
      report.Set("sim.events_per_op", events / ops, "count");
      report.Set("sim.run_s", runner.run_s(), "s");
      SetNet(report, net_before, ReadNet(cloud), ops);
      SetKeylime(report, Delta(kl_before, ReadKeylime({&verifier})));
    }
    if (failed != 0 || (r + 1 >= min_rounds && timed_s >= options.seconds)) {
      break;
    }
  }
  sim.set_observer(nullptr);
  if (registry != nullptr) {
    SetRpc(report, *registry);
  }

  SetPercentile(report, "attest_round_sim_ms", round_sim_ms, 50, "ms");
  SetEndToEnd(report, setup, untraced, report.metrics().at("provision_sim_s_mean").value);
  report.Set("keylime.round_s", Median(round_s), "s");
  report.Set("core.cloud_build_s", Median(build_s), "s");
  report.Set("core.rollout_s", Median(rollout_s), "s");
  SetOverhead(report, traced_units, untraced);
}

// --- churn_mixed -------------------------------------------------------------
// Charlie tenants (tenant-deployed Keylime, LUKS, IPsec mesh, continuous
// attestation) under three concurrent, open-loop streams in simulated time:
// continuous attestation every 2 s, one release + re-provision every 2 s
// round-robin over tenants, and one 8 KiB ESP-sealed RPC per member per
// second to a random enclave peer.  One op is one simulated second.
namespace {

constexpr char kTenantMsg[] = "tenant.msg";
constexpr char kTenantAck[] = "tenant.ack";
constexpr size_t kMessageBytes = 8 * 1024;
constexpr sim::Duration kMessageTimeout = sim::Duration::Seconds(1);

struct ChurnNode {
  int tenant = 0;
  bool churning = false;
  // Bumped when a release starts and when the re-provision ends: a message
  // whose endpoints changed generation in flight lost its SA to churn.
  uint64_t generation = 0;
};

struct ChurnState {
  Fleet* fleet = nullptr;
  Spans* spans = nullptr;
  int64_t op = 0;  // current simulated second, for span attribution
  InputRng rng{0};
  std::vector<ChurnNode> nodes;                 // by machine index
  std::vector<std::vector<size_t>> tenant_nodes;  // seed-permuted per tenant

  uint64_t sent = 0;
  uint64_t bytes_sealed = 0;
  uint64_t acked = 0;
  uint64_t churn_aborted = 0;
  uint64_t timeouts = 0;
  uint64_t open_failures = 0;
  uint64_t no_sa = 0;
  uint64_t pairs_without_sa = 0;  // settled pairs skipped at send time
  std::vector<double> rtt_us;

  uint64_t cycles_started = 0;
  uint64_t releases = 0;
  uint64_t reprovisions = 0;
  uint64_t reprovision_failures = 0;
  std::vector<double> reprovision_s;
};

// The plaintext names its sender and sequence number; the receiver
// regenerates the rest and compares, so a mis-keyed open cannot pass.
crypto::Bytes TenantPayload(uint64_t seq, uint64_t sender) {
  crypto::Bytes payload(kMessageBytes);
  for (size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<uint8_t>(seq >> (8 * i));
    payload[8 + i] = static_cast<uint8_t>(sender >> (8 * i));
  }
  for (size_t i = 16; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 131) ^ seq ^ (sender << 3));
  }
  return payload;
}

uint64_t ReadLe64(const crypto::Bytes& bytes, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

sim::Task HandleTenantMessage(ChurnState* st, machine::Machine* self,
                              const net::Message* request, net::Message* response) {
  std::optional<crypto::Bytes> opened;
  {
    Spans::Scope span(*st->spans, "ipsec.Open", st->op);
    opened = self->ipsec().Open(request->src, request->payload);
  }
  const bool ok = opened.has_value() && opened->size() == kMessageBytes &&
                  *opened == TenantPayload(ReadLe64(*opened, 0), ReadLe64(*opened, 8));
  response->kind = ok ? kTenantAck : "tenant.nak";
  co_return;
}

sim::Task SendTenantMessage(ChurnState* st, size_t from, size_t to, uint64_t seq) {
  core::Cloud& cloud = *st->fleet->cloud;
  machine::Machine& a = cloud.machine(from);
  machine::Machine& b = cloud.machine(to);
  const uint64_t gen_from = st->nodes[from].generation;
  const uint64_t gen_to = st->nodes[to].generation;
  const crypto::Bytes plaintext = TenantPayload(seq, from);
  std::optional<crypto::Bytes> sealed;
  {
    Spans::Scope span(*st->spans, "ipsec.Seal", st->op);
    sealed = a.ipsec().Seal(b.address(), plaintext);
  }
  if (!sealed.has_value()) {
    ++st->no_sa;  // MessageLoop checked the SA this instant
    co_return;
  }
  ++st->sent;
  st->bytes_sealed += plaintext.size();
  net::Message request;
  request.kind = kTenantMsg;
  request.payload = std::move(*sealed);
  net::Message response;
  bool ok = false;
  const sim::Time start = cloud.sim().now();
  co_await a.rpc().Call(b.address(), std::move(request), &response, &ok, kMessageTimeout);
  if (st->nodes[from].generation != gen_from || st->nodes[to].generation != gen_to) {
    ++st->churn_aborted;
  } else if (!ok) {
    ++st->timeouts;
  } else if (response.kind != kTenantAck) {
    ++st->open_failures;
  } else {
    ++st->acked;
    st->rtt_us.push_back(static_cast<double>((cloud.sim().now() - start).nanoseconds()) /
                         1e3);
  }
}

// A member only ever messages a settled peer that shares a live SA with
// it in both directions.  Enclave::InstallMeshKeys pairs a new node with
// the members settled when it boots, so two nodes whose provisions overlap
// never share an SA; those pairs are counted, not messaged.
sim::Task MessageLoop(ChurnState* st, sim::Time end) {
  core::Cloud& cloud = *st->fleet->cloud;
  sim::Simulation& sim = cloud.sim();
  uint64_t seq = 0;
  std::vector<size_t> peers;
  // The last batch goes out a second before `end`, so every message has
  // been answered or timed out (kMessageTimeout) when the horizon ends.
  while (sim.now() + sim::Duration::Seconds(1) < end) {
    co_await sim::Delay(sim, sim::Duration::Seconds(1));
    for (const std::vector<size_t>& members : st->tenant_nodes) {
      for (const size_t from : members) {
        if (st->nodes[from].churning) {
          continue;
        }
        net::IpsecContext& self = cloud.machine(from).ipsec();
        const net::Address self_address = cloud.machine(from).address();
        peers.clear();
        for (const size_t to : members) {
          if (to == from || st->nodes[to].churning) {
            continue;
          }
          machine::Machine& peer = cloud.machine(to);
          if (self.HasSa(peer.address()) && peer.ipsec().HasSa(self_address)) {
            peers.push_back(to);
          } else {
            ++st->pairs_without_sa;
          }
        }
        if (!peers.empty()) {
          sim.Spawn(SendTenantMessage(st, from, peers[st->rng.Below(peers.size())], seq++));
        }
      }
    }
  }
}

sim::Task ChurnCycle(ChurnState* st, size_t machine) {
  ChurnNode& node = st->nodes[machine];
  core::Enclave& enclave = *st->fleet->enclaves[static_cast<size_t>(node.tenant)];
  const std::string& name = st->fleet->names[machine];
  node.churning = true;
  ++node.generation;
  co_await enclave.ReleaseNode(name);
  ++st->releases;
  core::ProvisionOutcome outcome;
  co_await enclave.ProvisionNode(name, &outcome);
  ++st->reprovisions;
  if (outcome.success) {
    st->reprovision_s.push_back(outcome.trace.total().ToSecondsF());
  } else {
    ++st->reprovision_failures;
  }
  ++node.generation;
  node.churning = false;
}

sim::Task ChurnLoop(ChurnState* st, sim::Time last_start) {
  sim::Simulation& sim = st->fleet->cloud->sim();
  const size_t tenants = st->tenant_nodes.size();
  for (uint64_t k = 0;; ++k) {
    co_await sim::Delay(sim, sim::Duration::Seconds(2));
    if (sim.now() > last_start) {
      co_return;
    }
    const std::vector<size_t>& members = st->tenant_nodes[k % tenants];
    const size_t machine = members[(k / tenants) % members.size()];
    if (!st->nodes[machine].churning) {
      ++st->cycles_started;
      sim.Spawn(ChurnCycle(st, machine));
    }
  }
}

}  // namespace

void RunChurnMixed(const Options& options, Spans& spans, Report& report) {
  SetPerLayerDefaults(report);
  const int tenants = options.small ? 2 : 4;
  const int per_tenant = options.small ? 6 : 40;
  const int machines = tenants * per_tenant;
  const int racks = options.small ? 2 : 4;
  const int inflight = options.small ? 12 : 64;
  const int min_reps = options.small ? 1 : 2;
  // Timed horizon and the last churn start, in simulated seconds: churn
  // stops early enough for every started cycle to finish in the horizon.
  const int64_t horizon_s = options.small ? 200 : 360;
  const int64_t churn_until_s = options.small ? 20 : 220;
  const uint64_t min_cycles = options.small ? 5 : 100;
  // Timed units are blocks of kBlockSeconds simulated seconds; traced runs
  // alternate traced and untraced blocks.
  constexpr int64_t kBlockSeconds = 10;

  InputRng rng(options.seed);
  const std::vector<size_t> order = Permutation(static_cast<size_t>(machines), rng);
  const core::CloudConfig config = FleetConfig(machines, racks, /*chunked=*/true,
                                               inflight, rng);
  const uint64_t message_seed = rng.Next();
  const std::vector<core::TrustProfile> profiles(static_cast<size_t>(tenants),
                                                 core::TrustProfile::Charlie());

  SimRunner runner(spans);
  HostSamples setup;
  HostSamples untraced;
  HostSamples traced_units;
  std::vector<double> build_s;
  std::vector<double> rollout_s;
  double provision_sim_s_mean = 0;
  double timed_s = 0;
  // Each repetition is a fresh set-up (the Charlie rollout) followed by the
  // timed horizon; repetitions after the first must reproduce its digest.
  for (int rep = 0;; ++rep) {
    // Declared before the fleet: RPC handlers and coroutine frames that the
    // simulation still holds at teardown point into it.
    ChurnState st;
    const auto start = Clock::now();
    std::unique_ptr<Fleet> fleet = BuildFleet(config, profiles, spans, rep);
    build_s.push_back(SecondsSince(start));
    // Machines are dealt to tenants in seed order, so each tenant spans
    // racks differently from seed to seed.
    std::vector<ProvisionItem> items;
    for (size_t k = 0; k < order.size(); ++k) {
      items.push_back({fleet->enclaves[k % static_cast<size_t>(tenants)].get(), order[k]});
    }
    const RolloutResult rollout = Rollout(*fleet, items, inflight, runner, rep);
    AddSetup(setup, build_s.back() + rollout.host_s, fleet->windows);
    rollout_s.push_back(rollout.host_s);
    report.attempted += items.size();
    report.failed += rollout.failures;
    GateRollout(report, rollout, "churn_mixed rollout");
    if (rollout.failures != 0) {
      return;
    }
    core::Cloud& cloud = *fleet->cloud;
    sim::Simulation& sim = cloud.sim();
    const uint64_t rollout_digest = FleetDigest(cloud);

    st.fleet = fleet.get();
    st.spans = &spans;
    st.rng = InputRng(message_seed);
    st.nodes.resize(static_cast<size_t>(machines));
    st.tenant_nodes.resize(static_cast<size_t>(tenants));
    for (size_t k = 0; k < order.size(); ++k) {
      const int tenant = static_cast<int>(k % static_cast<size_t>(tenants));
      st.nodes[order[k]].tenant = tenant;
      st.tenant_nodes[static_cast<size_t>(tenant)].push_back(order[k]);
    }
    for (size_t m = 0; m < cloud.num_machines(); ++m) {
      machine::Machine* self = &cloud.machine(m);
      ChurnState* state = &st;
      self->rpc().RegisterHandler(
          kTenantMsg, [state, self](const net::Message& request, net::Message* response) {
            return HandleTenantMessage(state, self, &request, response);
          });
    }
    std::vector<keylime::Verifier*> verifiers;
    for (const auto& enclave : fleet->enclaves) {
      verifiers.push_back(&enclave->verifier());
    }
    std::unique_ptr<obs::Registry> registry;
    if (options.trace) {
      registry = std::make_unique<obs::Registry>(sim);
      sim.set_observer(nullptr);
    }

    const KeylimeCounters kl_before = ReadKeylime(verifiers);
    const NetCounters net_before = ReadNet(cloud);
    const uint64_t events_before = sim.events_processed();
    const sim::Time t0 = sim.now();
    sim.Spawn(MessageLoop(&st, t0 + sim::Duration::Seconds(horizon_s)));
    sim.Spawn(ChurnLoop(&st, t0 + sim::Duration::Seconds(churn_until_s)));
    runner.reset();
    Bracket bracket;
    for (int64_t block = 0; block * kBlockSeconds < horizon_s; ++block) {
      const bool traced = options.trace && block % 2 == 1;
      sim.set_observer(traced ? registry.get() : nullptr);
      const auto block_start = Clock::now();
      const int64_t end = std::min(horizon_s, (block + 1) * kBlockSeconds);
      for (int64_t second = block * kBlockSeconds; second < end; ++second) {
        st.op = second;
        runner.RunUntil(sim, t0 + sim::Duration::Seconds(second + 1), second);
      }
      const double block_s = SecondsSince(block_start);
      timed_s += block_s;
      const auto seconds = static_cast<double>(end - block * kBlockSeconds);
      (traced ? traced_units : untraced).Add(block_s / seconds * 1e6, bracket.Next());
    }
    sim.set_observer(nullptr);
    const KeylimeCounters kl = Delta(kl_before, ReadKeylime(verifiers));

    // Gates: every message whose SA was live when sent opened
    // authenticated, every continuous verdict passed, every churn cycle
    // re-provisioned.
    report.Gate(st.no_sa == 0, "churn_mixed: " + std::to_string(st.no_sa) +
                                   " messages lost their SA before sealing");
    report.Gate(st.sent > 0, "churn_mixed: no tenant message was sent");
    report.Gate(st.open_failures == 0 && st.timeouts == 0,
                "churn_mixed: " + std::to_string(st.open_failures) + " open failures, " +
                    std::to_string(st.timeouts) + " timeouts between settled members");
    report.Gate(kl.violations == 0,
                "churn_mixed: continuous attestation reported violations");
    report.Gate(st.reprovisions == st.cycles_started && st.reprovision_failures == 0,
                "churn_mixed: " + std::to_string(st.reprovisions) + " of " +
                    std::to_string(st.cycles_started) + " churn cycles re-provisioned, " +
                    std::to_string(st.reprovision_failures) + " failed");
    report.Gate(st.reprovisions >= min_cycles,
                "churn_mixed: only " + std::to_string(st.reprovisions) + " churn cycles");
    report.attempted += (st.sent - st.churn_aborted) + st.cycles_started +
                        static_cast<uint64_t>(kl.verifications);
    report.failed += st.open_failures + st.timeouts + st.reprovision_failures +
                     (st.cycles_started - std::min(st.cycles_started, st.reprovisions)) +
                     static_cast<uint64_t>(kl.violations);

    const uint64_t digest = Mix(rollout_digest, FleetDigest(cloud));
    if (rep == 0) {
      report.digest = digest;
      SetKeylime(report, kl);
      std::vector<double> all_provisions = rollout.totals_s;
      all_provisions.insert(all_provisions.end(), st.reprovision_s.begin(),
                            st.reprovision_s.end());
      provision_sim_s_mean = Mean(all_provisions);
      SetProvisionPercentiles(report, st.reprovision_s);
      report.Set("fleet_ready_sim_s", rollout.ready_sim_s, "s");
      SetPercentile(report, "tenant_msg_sim_us_p50", st.rtt_us, 50, "us");
      SetPercentile(report, "tenant_msg_sim_us_p99", st.rtt_us, 99, "us");
      report.Note("churn_mixed: " + std::to_string(st.sent) + " messages sealed, " +
                  std::to_string(st.churn_aborted) + " lost an endpoint to churn, " +
                  std::to_string(st.pairs_without_sa) +
                  " settled member pairs skipped for lack of an SA, " +
                  std::to_string(st.reprovisions) + " re-provisions");
      const auto events = static_cast<double>(sim.events_processed() - events_before);
      report.Set("sim.events", events, "count");
      report.Set("sim.events_per_op", events / static_cast<double>(horizon_s), "count");
      report.Set("sim.run_s", runner.run_s(), "s");
      SetNet(report, net_before, ReadNet(cloud), static_cast<double>(horizon_s));
      report.Set("ipsec.messages", static_cast<double>(st.sent), "count");
      report.Set("ipsec.bytes_sealed", static_cast<double>(st.bytes_sealed), "B");
      report.Set("ipsec.seal_s", spans.TotalSeconds("ipsec.Seal"), "s");
      report.Set("ipsec.open_s", spans.TotalSeconds("ipsec.Open"), "s");
      report.Set("ipsec.open_failures", static_cast<double>(st.open_failures), "count");
      SetStorage(report, cloud, static_cast<double>(machines + st.reprovisions));
      report.Set("core.provisions", static_cast<double>(machines + st.reprovisions), "count");
      report.Set("core.releases", static_cast<double>(st.releases), "count");
      report.Set("core.provision_failures", static_cast<double>(st.reprovision_failures),
                 "count");
      if (registry != nullptr) {
        SetRpc(report, *registry);
      }
    } else {
      report.Gate(digest == report.digest,
                  "churn_mixed: repeated run diverged from the first (digest)");
    }
    if (!report.correct() || (rep + 1 >= min_reps && timed_s >= options.seconds)) {
      break;
    }
  }
  report.Set("core.cloud_build_s", Median(build_s), "s");
  report.Set("core.rollout_s", Median(rollout_s), "s");
  SetEndToEnd(report, setup, untraced, provision_sim_s_mean);
  SetOverhead(report, traced_units, untraced);
}

// --- fleet_sharded -----------------------------------------------------------
// bench/fleet_scenario's churn spec (4096 nodes on 64 racks, 3 tenants,
// 30 simulated seconds) on the rack-sharded scenario model at 4 shards.
// Set-up is the shards=1 oracle; every timed run must match its per-rack
// digests.  One op is one simulated second.
//
// The shards run on one worker thread: they still cross every conservative
// window, ring and canonical route, but no barrier.  With 4 workers on a
// shared 4-vCPU host the barrier waits dominated and swung 8x between runs
// (143 ms to 1.1 s per op), which no regression bound can absorb.
namespace {

scenario::ShardedScenarioConfig ChurnSpec(uint32_t nodes, int64_t horizon_s,
                                          uint32_t shards, uint64_t seed) {
  scenario::ShardedScenarioConfig config;
  config.racks = nodes / 64 < 4 ? 4 : nodes / 64;
  config.nodes_per_rack = nodes / config.racks;
  config.shards = shards;
  config.workers = 1;
  config.seed = seed;
  config.tenants = 3;
  config.horizon_ns = horizon_s * 1'000'000'000;
  config.attest_interval_ns = 1'000'000'000;
  config.churn_start_ns = 5'000'000'000;
  config.churn_end_ns = config.horizon_ns - 10'000'000'000;
  config.churn_hold_ns = 6'000'000'000;
  config.churn_release_fraction = 0.5;
  return config;
}

bool SameOutcome(const scenario::ShardedScenarioResult& a,
                 const scenario::ShardedScenarioResult& b) {
  return a.fleet_digest == b.fleet_digest && a.rack_digests == b.rack_digests &&
         a.final_states == b.final_states && a.final_firmware == b.final_firmware;
}

}  // namespace

void RunFleetSharded(const Options& options, Spans& spans, Report& report) {
  SetPerLayerDefaults(report);
  const uint32_t nodes = options.small ? 512 : 4096;
  const int64_t horizon_s = options.small ? 20 : 30;
  const uint32_t shards = options.small ? 2 : 4;
  const int setups = options.small ? 1 : 3;
  const size_t min_reps = options.trace ? 2 : 3;
  InputRng rng(options.seed);
  const uint64_t seed = rng.Next();

  HostSamples setup;
  scenario::ShardedScenarioResult oracle;
  Bracket bracket;
  for (int s = 0; s < setups; ++s) {
    const auto start = Clock::now();
    scenario::ShardedScenarioResult result;
    {
      Spans::Scope span(spans, "scenario.RunShardedScenario.oracle", s);
      result = scenario::RunShardedScenario(ChurnSpec(nodes, horizon_s, 1, seed));
    }
    setup.Add(SecondsSince(start), bracket.Next());
    report.Gate(result.ok(), "fleet_sharded oracle: " +
                                 (result.ok() ? std::string() : result.failures.front()));
    if (s == 0) {
      oracle = std::move(result);
    } else {
      report.Gate(SameOutcome(result, oracle), "fleet_sharded: oracle replay diverged");
    }
  }

  std::vector<double> run_s;
  HostSamples untraced;
  HostSamples traced_units;
  double timed_s = 0;
  scenario::ShardedScenarioResult first;
  for (size_t rep = 0;; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    Spans disabled(false);
    Spans& rep_spans = traced || !options.trace ? spans : disabled;
    const auto start = Clock::now();
    scenario::ShardedScenarioResult result;
    {
      Spans::Scope span(rep_spans, "scenario.RunShardedScenario", static_cast<int64_t>(rep));
      result = scenario::RunShardedScenario(ChurnSpec(nodes, horizon_s, shards, seed));
    }
    const double host_s = SecondsSince(start);
    (traced ? traced_units : untraced)
        .Add(host_s / static_cast<double>(horizon_s) * 1e6, bracket.Next());
    if (!traced) {
      run_s.push_back(host_s);
    }
    timed_s += host_s;
    report.attempted += result.provisions + result.quotes;
    report.failed += result.failures.size();
    report.Gate(result.ok(), "fleet_sharded: " +
                                 (result.ok() ? std::string() : result.failures.front()));
    report.Gate(SameOutcome(result, oracle),
                "fleet_sharded: shards=" + std::to_string(shards) +
                    " per-rack digests differ from the shards=1 oracle");
    if (rep == 0) {
      first = std::move(result);
    }
    if (!report.correct() || (rep + 1 >= min_reps && timed_s >= options.seconds)) {
      break;
    }
  }

  report.digest = oracle.fleet_digest;
  const double provision_mean_s =
      oracle.provision_latency_count == 0
          ? 0
          : static_cast<double>(oracle.provision_latency_sum_ns) /
                static_cast<double>(oracle.provision_latency_count) / 1e9;
  report.Note("fleet_sharded: provision_sim_s_mean over " +
              std::to_string(oracle.provision_latency_count) + " provisions");
  SetEndToEnd(report, setup, untraced, provision_mean_s);
  const auto events = static_cast<double>(oracle.events);
  report.Set("sim.events", events, "count");
  report.Set("sim.events_per_op", events / static_cast<double>(horizon_s), "count");
  report.Set("sim.run_s", Median(run_s), "s");
  report.Set("core.provisions", static_cast<double>(oracle.provisions), "count");
  report.Set("core.releases", static_cast<double>(oracle.churn_cycles), "count");
  report.Set("shard.windows", static_cast<double>(first.windows), "count");
  report.Set("shard.events_per_window",
             Ratio(static_cast<double>(first.events), static_cast<double>(first.windows)),
             "count");
  report.Set("shard.frames_routed", static_cast<double>(first.frames_routed), "count");
  report.Set("shard.ring_spills", static_cast<double>(first.spills), "count");
  report.Set("shard.oracle_s", Median(setup.raw), "s");
  // Oracle over sharded run time, both probe-rescaled.
  const double sharded_run_s = Median(untraced.scaled) * static_cast<double>(horizon_s) / 1e6;
  report.Set("shard.speedup", Median(setup.scaled) / sharded_run_s, "ratio");
  SetOverhead(report, traced_units, untraced);
}

}  // namespace fleetbench
