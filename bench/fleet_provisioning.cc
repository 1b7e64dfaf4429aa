// Fleet-scale provisioning: every node in a 4096-machine datacenter
// provisioned concurrently through the BMI service, measured in host time
// per simulated event.
//
// This is the control-plane stress twin of fleet_attestation: thousands
// of boot flows in flight means the event queue carries a huge population
// of in-flight timers (DHCP retries, RPC timeouts, transfer completions)
// with constant schedule/cancel churn — exactly the shape the timing-wheel
// scheduler is built for.  The bench reports simulated provisioning time
// for the whole fleet plus the host-side events_per_second / ns_per_event
// the regression guard tracks.
//
// The fleet is provisioned twice: once with the classic image pull (every
// node streams its boot working set from the central object store over
// iSCSI) and once with content-addressed chunked distribution (per-rack
// chunk caches, the store only serves cold misses).  The second run emits
// the chunk_cache_hit_rate and origin-bytes rows, and the bench enforces
// the >= 5x origin-byte reduction the chunked path exists to deliver.
//
// The calibration is scaled for fleet runs: LinuxBoot in flash (no iPXE
// chain-load), a 32 MiB boot image, and 64 concurrent airlock slots so
// the run exercises parallelism instead of the prototype's single-airlock
// queue (Fig. 5 covers that regime).
//
// Usage: fleet_provisioning [output-path] [--nodes=N]
//   (default output: BENCH_provisioning.json, default fleet 4096.)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_cli.h"
#include "src/core/cloud.h"
#include "src/core/enclave.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct FleetResult {
  double build_ms = 0;
  double wall_ms = 0;
  double sim_seconds = 0;
  uint64_t events = 0;
  double origin_bytes = 0;     // OSD bytes served while the fleet booted
  double cache_hit_rate = 0;   // chunked runs only
};

double OsdBytesServed(bolted::core::Cloud& cloud) {
  double total = 0;
  for (int h = 0; h < cloud.ceph().config().num_osd_hosts; ++h) {
    total += cloud.ceph().osd_resource(h).total_served();
  }
  return total;
}

FleetResult RunFleet(int nodes, bool chunked) {
  using namespace bolted;

  core::CloudConfig config;
  config.num_machines = nodes;
  config.linuxboot_in_flash = true;
  config.racks = nodes >= 256 ? 8 : 1;
  config.chunked_distribution = chunked;
  config.cal.boot_read_bytes = 32ull << 20;
  config.cal.max_concurrent_airlocks = 64;

  const auto build_start = Clock::now();
  core::Cloud cloud(config);
  FleetResult result;
  result.build_ms = MillisSince(build_start);

  // Alice's profile: no attestation, no encryption — the flow is pure
  // control plane + boot I/O, so the event rate measures the scheduler
  // and frame path rather than ECDSA.
  core::Enclave enclave(cloud, "fleet", core::TrustProfile::Alice(), 42);

  // The tenant rolls the fleet in waves: 64 nodes in flight at a time
  // (matching the airlock capacity), the way a real rollout paces itself
  // so concurrent image fetches don't starve each other into RPC
  // timeouts.  The event queue still carries every waiting node's state,
  // so the scheduler sees the full fleet.
  sim::Semaphore rollout(cloud.sim(), config.cal.max_concurrent_airlocks);
  std::vector<core::ProvisionOutcome> outcomes(static_cast<size_t>(nodes));
  auto provision = [&](int i) -> sim::Task {
    co_await rollout.Acquire();
    sim::SemaphoreGuard slot(rollout);
    co_await enclave.ProvisionNode(cloud.node_name(static_cast<size_t>(i)),
                                   &outcomes[static_cast<size_t>(i)]);
  };
  for (int i = 0; i < nodes; ++i) {
    cloud.sim().Spawn(provision(i));
  }

  const double osd_before = OsdBytesServed(cloud);
  const auto start = Clock::now();
  cloud.sim().Run();
  result.wall_ms = MillisSince(start);
  result.origin_bytes = OsdBytesServed(cloud) - osd_before;

  for (int i = 0; i < nodes; ++i) {
    if (!outcomes[static_cast<size_t>(i)].success) {
      std::fprintf(stderr, "provisioning failed for %s: %s\n",
                   cloud.node_name(static_cast<size_t>(i)).c_str(),
                   outcomes[static_cast<size_t>(i)].failure.c_str());
      std::exit(1);
    }
  }

  result.events = cloud.sim().events_processed();
  result.sim_seconds = cloud.sim().now().ToSecondsF();

  if (chunked) {
    uint64_t served = 0;
    uint64_t local = 0;
    for (size_t c = 0; c < cloud.num_rack_chunk_caches(); ++c) {
      const auto& stats = cloud.rack_chunk_cache(c).stats();
      served += stats.hits + stats.coalesced + stats.origin_fetches +
                stats.peer_redirects;
      local += stats.hits + stats.coalesced + stats.peer_redirects;
    }
    result.cache_hit_rate =
        served == 0 ? 0 : static_cast<double>(local) / static_cast<double>(served);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 4096;
  const char* out_path =
      bolted::bench::Cli("usage: fleet_provisioning [output-path] [--nodes=N]",
                         "BENCH_provisioning.json")
          .Number("--nodes", &nodes)
          .Parse(argc, argv);

  const FleetResult classic = RunFleet(nodes, /*chunked=*/false);
  const FleetResult chunked = RunFleet(nodes, /*chunked=*/true);

  const double events_per_second =
      static_cast<double>(classic.events) / (classic.wall_ms / 1e3);
  const double ns_per_event =
      classic.wall_ms * 1e6 / static_cast<double>(classic.events);
  const double origin_reduction =
      chunked.origin_bytes > 0 ? classic.origin_bytes / chunked.origin_bytes : 0;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"fleet_nodes\": %d,\n"
               "  \"airlock_slots\": 64,\n"
               "  \"build_wall_ms\": %.3f,\n"
               "  \"wall_ms\": %.3f,\n"
               "  \"sim_seconds\": %.3f,\n"
               "  \"events\": %" PRIu64 ",\n"
               "  \"events_per_second\": %.0f,\n"
               "  \"ns_per_event\": %.1f,\n"
               "  \"chunked_wall_ms\": %.3f,\n"
               "  \"chunked_sim_seconds\": %.3f,\n"
               "  \"chunk_cache_hit_rate\": %.4f,\n"
               "  \"unchunked_origin_bytes\": %.0f,\n"
               "  \"chunked_origin_bytes\": %.0f,\n"
               "  \"origin_reduction\": %.1f\n"
               "}\n",
               nodes, classic.build_ms, classic.wall_ms, classic.sim_seconds,
               classic.events, events_per_second, ns_per_event, chunked.wall_ms,
               chunked.sim_seconds, chunked.cache_hit_rate, classic.origin_bytes,
               chunked.origin_bytes, origin_reduction);
  std::fclose(f);

  std::printf("provisioned %d nodes in %.1f simulated s (%.1f ms wall)\n",
              nodes, classic.sim_seconds, classic.wall_ms);
  std::printf("%" PRIu64 " events, %.0f events/s, %.1f ns/event\n",
              classic.events, events_per_second, ns_per_event);
  std::printf("chunked: %.1f simulated s, hit rate %.3f, origin %.0f MiB vs "
              "%.0f MiB (%.1fx reduction)\n",
              chunked.sim_seconds, chunked.cache_hit_rate,
              chunked.origin_bytes / (1 << 20), classic.origin_bytes / (1 << 20),
              origin_reduction);
  std::printf("wrote %s\n", out_path);

  // The chunked path exists to stop every node pulling its full image from
  // the central store; hold the line here rather than in a separate guard.
  if (nodes >= 64 && origin_reduction < 5.0) {
    std::fprintf(stderr,
                 "FAIL: chunked distribution reduced origin bytes only %.1fx "
                 "(floor 5.0x)\n",
                 origin_reduction);
    return 1;
  }
  return 0;
}
