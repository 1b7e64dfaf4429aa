// Scenario-engine throughput: a 4096-node churn scenario on the
// rack-sharded lifecycle model (DESIGN.md §13).
//
// Every node provisions, attests continuously, and churns (release +
// re-provision) for the whole horizon.  The run is executed twice: once
// at shards=1/workers=1 (the single-threaded oracle) and once with the
// parallel configuration; the per-rack digests and final verdict vectors
// must match exactly or the bench fails — a digest mismatch is a
// correctness bug, not a performance result.
//
// The headline numbers are host-side events/second plus the simulated
// provision and attestation phase latencies (mean/max, in sim time).
// The sim-time latency keys are informational; the regression
// guard (scripts/bench_guard.py) tracks the wall_ms / events_per_second /
// ns_per_event keys.  The window keys (scenario_windows, events and rack
// runs per window) show the conservative-sync cost; both legs must agree
// on windows and rack runs too, since the window sequence is part of the
// determinism contract.
//
// Usage: fleet_scenario [output-path] [--nodes=N] [--horizon-s=S]
//   (default: 4096 nodes, 30 simulated s, writes BENCH_scenario.json)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench/bench_cli.h"
#include "src/scenario/sharded.h"

namespace {

using bolted::scenario::RunShardedScenario;
using bolted::scenario::ShardedScenarioConfig;
using bolted::scenario::ShardedScenarioResult;

using Clock = std::chrono::steady_clock;

ShardedScenarioConfig ChurnConfig(uint32_t nodes, int64_t horizon_s,
                                  uint32_t shards, uint32_t workers) {
  ShardedScenarioConfig config;
  config.racks = nodes / 64 < 4 ? 4 : nodes / 64;
  config.nodes_per_rack = nodes / config.racks;
  config.shards = shards;
  config.workers = workers;
  config.seed = 0x5ce0'6e4cu;
  config.tenants = 3;
  config.horizon_ns = horizon_s * 1'000'000'000;
  config.attest_interval_ns = 1'000'000'000;  // dense attestation traffic
  // Churn for the whole horizon: the lifecycle path (release, re-boot,
  // quote, verdict) is the workload, not just the steady attestation hum.
  config.churn_start_ns = 5'000'000'000;
  config.churn_end_ns = config.horizon_ns - 10'000'000'000;
  config.churn_hold_ns = 6'000'000'000;
  config.churn_release_fraction = 0.5;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t nodes = 4096;
  int64_t horizon_s = 30;
  const char* out_path =
      bolted::bench::Cli(
          "usage: fleet_scenario [output-path] [--nodes=N] [--horizon-s=S]",
          "BENCH_scenario.json")
          .Number("--nodes", &nodes)
          .Number("--horizon-s", &horizon_s)
          .Parse(argc, argv);

  const uint32_t cores = std::thread::hardware_concurrency();
  const uint32_t par = cores >= 4 ? 4 : (cores >= 2 ? 2 : 1);

  // Oracle leg: single-threaded, the digest reference.
  const auto oracle_start = Clock::now();
  const ShardedScenarioResult oracle =
      RunShardedScenario(ChurnConfig(nodes, horizon_s, 1, 1));
  const double oracle_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - oracle_start)
          .count();
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle scenario failed: %s\n",
                 oracle.failures.front().c_str());
    return 1;
  }

  // Parallel leg: must reproduce the oracle byte-for-byte.
  const auto par_start = Clock::now();
  const ShardedScenarioResult sharded =
      RunShardedScenario(ChurnConfig(nodes, horizon_s, par, par));
  const double par_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - par_start)
          .count();
  if (!sharded.ok()) {
    std::fprintf(stderr, "shards=%u scenario failed: %s\n", par,
                 sharded.failures.front().c_str());
    return 1;
  }
  if (sharded.fleet_digest != oracle.fleet_digest ||
      sharded.rack_digests != oracle.rack_digests ||
      sharded.final_states != oracle.final_states ||
      sharded.final_firmware != oracle.final_firmware ||
      sharded.windows != oracle.windows ||
      sharded.rack_runs != oracle.rack_runs) {
    std::fprintf(stderr,
                 "shards=%u diverged from oracle (fleet digest %016" PRIx64
                 " vs %016" PRIx64 ", windows %" PRIu64 " vs %" PRIu64
                 ", rack runs %" PRIu64 " vs %" PRIu64 ")\n",
                 par, sharded.fleet_digest, oracle.fleet_digest,
                 sharded.windows, oracle.windows, sharded.rack_runs,
                 oracle.rack_runs);
    return 1;
  }

  const double events = static_cast<double>(oracle.events);
  const double windows =
      static_cast<double>(oracle.windows > 0 ? oracle.windows : 1);
  const double events_per_window = events / windows;
  const double rack_runs_per_window =
      static_cast<double>(oracle.rack_runs) / windows;
  const double prov_mean_ms =
      oracle.provision_latency_count > 0
          ? static_cast<double>(oracle.provision_latency_sum_ns) /
                static_cast<double>(oracle.provision_latency_count) / 1e6
          : 0.0;
  const double att_mean_us =
      oracle.attest_latency_count > 0
          ? static_cast<double>(oracle.attest_latency_sum_ns) /
                static_cast<double>(oracle.attest_latency_count) / 1e3
          : 0.0;

  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"nodes\": %u,\n"
      "  \"host_cores\": %u,\n"
      "  \"scenario_horizon_s\": %" PRId64 ",\n"
      "  \"scenario_events\": %" PRIu64 ",\n"
      "  \"scenario_frames_routed\": %" PRIu64 ",\n"
      "  \"scenario_provisions\": %" PRIu64 ",\n"
      "  \"scenario_quotes\": %" PRIu64 ",\n"
      "  \"scenario_churn_cycles\": %" PRIu64 ",\n"
      "  \"scenario_windows\": %" PRIu64 ",\n"
      "  \"scenario_events_per_window\": %.3f,\n"
      "  \"scenario_rack_runs_per_window\": %.3f,\n"
      "  \"scenario_provision_mean_sim_ms\": %.1f,\n"
      "  \"scenario_provision_max_sim_ms\": %.1f,\n"
      "  \"scenario_attest_mean_sim_us\": %.1f,\n"
      "  \"scenario_attest_max_sim_us\": %.1f,\n"
      "  \"scenario_wall_ms\": %.3f,\n"
      "  \"scenario_events_per_second\": %.0f,\n"
      "  \"scenario_ns_per_event\": %.1f,\n"
      "  \"scenario_parallel_shards\": %u,\n"
      "  \"scenario_parallel_wall_ms\": %.3f\n"
      "}\n",
      nodes, cores, horizon_s, oracle.events, oracle.frames_routed,
      oracle.provisions, oracle.quotes, oracle.churn_cycles, oracle.windows,
      events_per_window, rack_runs_per_window, prov_mean_ms,
      static_cast<double>(oracle.provision_latency_max_ns) / 1e6, att_mean_us,
      static_cast<double>(oracle.attest_latency_max_ns) / 1e3, oracle_ms,
      events / (oracle_ms / 1e3), oracle_ms * 1e6 / events, par, par_ms);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fwrite(buf, 1, std::strlen(buf), f);
  std::fclose(f);

  std::printf("%" PRIu64 " events in %.1f ms (%.0f events/s), shards=%u %.1f "
              "ms, digest %016" PRIx64 " identical\n",
              oracle.events, oracle_ms, events / (oracle_ms / 1e3), par, par_ms,
              oracle.fleet_digest);
  std::printf("%" PRIu64 " windows (%.2f events, %.2f rack runs per window)\n",
              oracle.windows, events_per_window, rack_runs_per_window);
  std::printf("provision mean %.1f ms max %.1f ms; attest mean %.1f us max "
              "%.1f us (sim time)\nwrote %s\n",
              prov_mean_ms,
              static_cast<double>(oracle.provision_latency_max_ns) / 1e6,
              att_mean_us,
              static_cast<double>(oracle.attest_latency_max_ns) / 1e3,
              out_path);
  return 0;
}
