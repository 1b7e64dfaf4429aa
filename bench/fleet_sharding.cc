// Sharded-simulation throughput: one fleet, swept over shard counts.
//
// A 4096-node datacenter (64 racks x 64 nodes) runs a steady control-
// plane workload: every node fires a local event each 5-15 us (rng
// jitter), and one in eight of those sends a 128-byte frame to a random
// other rack.  The identical seeded scenario is executed with shards in
// {1, 2, 4, 8} and one worker thread per shard, clamped to the host's
// cores (so the 8-shard row runs 4 threads on a 4-core host).  Every
// shard has work in every window, so each window fork-joins all of them
// on the pool.  shards=1/workers=1 is the single-threaded oracle, and
// every other configuration must reproduce its per-rack trace digests,
// window count and rack runs exactly — a mismatch is a correctness bug
// and the bench fails, not a performance result.
//
// The headline numbers are host-side events/second per shard count and
// the speedup_shardsN ratios.  Parallel speedup obviously requires
// cores: the JSON carries "host_cores" so the regression guard
// (scripts/bench_guard.py) only enforces the >= 3x @ 4 shards bar on
// hosts with at least 4 cores.  On smaller hosts the sweep still runs —
// the digest cross-check and the (honest) thread-overhead numbers are
// worth having everywhere.
//
// Usage: fleet_sharding [output-path] [--nodes=N] [--horizon-ms=M]
//                       [--pcap=<rack>:<file>]
//   (default: 4096 nodes, 5 simulated ms, writes BENCH_sharding.json)
//
// --pcap attaches a rack-local Network to the named rack: its cross-shard
// ingress is delivered through Network::InjectFrame (modeled NIC
// occupancy included) and captured to a deterministic pcap file with
// sim-time timestamps.  Capture mode runs the tapped rack's Network in
// every sweep configuration — the per-rack digest cross-check then also
// covers uplink ingress under sharding — but only the shards=1 oracle run
// writes the file, so the capture holds exactly one run's frames and is
// byte-identical regardless of host parallelism.

#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_cli.h"
#include "src/net/network.h"
#include "src/net/pcap.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"

namespace {

using bolted::sim::CrossShardFrame;
using bolted::sim::Duration;
using bolted::sim::Rack;
using bolted::sim::ShardedFleet;
using bolted::sim::ShardOptions;
using bolted::sim::Time;

using Clock = std::chrono::steady_clock;

constexpr uint64_t kSeed = 0x73686172646564u;  // "sharded"

struct Config {
  uint32_t racks = 64;
  uint32_t nodes_per_rack = 64;
  int64_t horizon_ns = 5'000'000;  // 5 simulated ms
  int64_t pcap_rack = -1;          // --pcap: rack whose ingress is modeled
};

struct RunResult {
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t windows = 0;
  uint64_t rack_runs = 0;
  double wall_ms = 0;
  uint64_t fleet_digest = 0;
  std::vector<uint64_t> rack_digests;
};

// Self-rescheduling per-node control loop.  All rng draws come from the
// owning rack's seeded stream inside the rack's own event executions, so
// the schedule is a pure function of (seed, rack) — shard/worker layout
// cannot perturb it.
void NodeStep(ShardedFleet& fleet, Rack& rack, uint32_t node) {
  auto& rng = rack.sim().rng();
  if (rng.NextBelow(8) == 0) {
    const uint32_t racks = fleet.num_racks();
    const uint32_t dst =
        (rack.index() + 1 + static_cast<uint32_t>(rng.NextBelow(racks - 1))) %
        racks;
    rack.Send(dst, fleet.lookahead() + Duration::Nanoseconds(
                       static_cast<int64_t>(rng.NextBelow(2000))),
              /*kind=*/1, /*bytes=*/128, /*payload0=*/node);
  }
  const auto next = static_cast<int64_t>(5000 + rng.NextBelow(10000));
  rack.sim().Schedule(Duration::Nanoseconds(next),
                      [&fleet, &rack, node] { NodeStep(fleet, rack, node); });
}

RunResult RunFleet(const Config& config, uint32_t shards, uint32_t workers,
                   bolted::net::PcapWriter* pcap_writer) {
  ShardOptions options;
  options.racks = config.racks;
  options.shards = shards;
  options.workers = workers;
  options.seed = kSeed;
  options.lookahead = Duration::Microseconds(50);
  ShardedFleet fleet(options);

  // Capture mode: the tapped rack hosts a rack-local Network whose one
  // port models the rack uplink; ingress frames ride Network::InjectFrame
  // (NIC occupancy, link-state and VLAN checks, frame digest, pcap tap).
  constexpr bolted::net::VlanId kVlan = 7;
  std::unique_ptr<bolted::net::Network> tap_network;
  bolted::net::Address tap_port = 0;
  if (config.pcap_rack >= 0) {
    Rack& rack = fleet.rack(static_cast<uint32_t>(config.pcap_rack));
    tap_network = std::make_unique<bolted::net::Network>(
        rack.sim(), Duration::Microseconds(10), 1e9);
    bolted::net::Endpoint& port = tap_network->CreateEndpoint(
        "uplink-" + std::to_string(config.pcap_rack));
    tap_network->AttachToVlan(port.address(), kVlan);
    tap_port = port.address();
    if (pcap_writer != nullptr) {
      tap_network->AttachPcapTap(tap_port, pcap_writer);
    }
  }

  // Frame ingress costs the destination rack one follow-up event (the
  // "NIC interrupt" of the model).
  fleet.set_frame_handler([&config, &tap_network, tap_port](
                              Rack& rack, const CrossShardFrame& frame) {
    rack.sim().Schedule(Duration::Microseconds(2), [] {});
    if (tap_network != nullptr &&
        rack.index() == static_cast<uint32_t>(config.pcap_rack)) {
      bolted::net::Message message;
      message.dst = tap_port;
      message.src = 9000 + frame.src_rack;
      message.kind = "shard.ingress";
      message.wire_bytes = frame.bytes;
      message.rpc_id = frame.payload0;
      tap_network->InjectFrame(std::move(message), kVlan);
    }
  });

  for (uint32_t r = 0; r < config.racks; ++r) {
    Rack& rack = fleet.rack(r);
    for (uint32_t n = 0; n < config.nodes_per_rack; ++n) {
      // Staggered starts so rack queues are never in lockstep.
      rack.sim().Schedule(Duration::Nanoseconds(1 + (n * 137) % 5000),
                          [&fleet, &rack, n] { NodeStep(fleet, rack, n); });
    }
  }

  const auto start = Clock::now();
  fleet.RunUntil(Time::FromNanoseconds(config.horizon_ns));
  RunResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  result.events = fleet.events_processed();
  result.frames = fleet.frames_routed();
  result.windows = fleet.windows();
  result.rack_runs = fleet.rack_runs();
  result.fleet_digest = fleet.fleet_digest();
  for (uint32_t r = 0; r < config.racks; ++r) {
    result.rack_digests.push_back(fleet.rack_digest(r));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t nodes = 4096;
  int64_t horizon_ms = 5;
  const char* pcap_spec = nullptr;
  const char* out_path =
      bolted::bench::Cli(
          "usage: fleet_sharding [output-path] [--nodes=N] [--horizon-ms=M]\n"
          "                      [--pcap=<rack>:<file>]",
          "BENCH_sharding.json")
          .Number("--nodes", &nodes)
          .Number("--horizon-ms", &horizon_ms)
          .Text("--pcap", &pcap_spec)
          .Parse(argc, argv);
  int64_t pcap_rack = -1;
  std::string pcap_path;
  if (pcap_spec != nullptr) {
    const char* colon = std::strchr(pcap_spec, ':');
    uint32_t rack = 0;
    const bool rack_ok = colon != nullptr && [&] {
      const auto [stop, error] = std::from_chars(pcap_spec, colon, rack);
      return error == std::errc() && stop == colon;
    }();
    if (!rack_ok || colon[1] == '\0') {
      std::fprintf(stderr, "--pcap wants <rack>:<file>\n");
      return 2;
    }
    pcap_rack = rack;
    pcap_path = colon + 1;
  }

  Config config;
  // The shard sweep tops out at 8, so keep at least 8 racks; beyond that,
  // 64 nodes per rack (the paper's rack size).
  config.racks = nodes / 64 < 8 ? 8 : nodes / 64;
  config.nodes_per_rack = nodes / config.racks;
  config.horizon_ns = horizon_ms * 1'000'000;
  config.pcap_rack = pcap_rack;
  const uint32_t total_nodes = config.racks * config.nodes_per_rack;
  if (pcap_rack >= 0 && pcap_rack >= static_cast<int64_t>(config.racks)) {
    std::fprintf(stderr, "--pcap rack %" PRId64 " out of range (%u racks)\n",
                 pcap_rack, config.racks);
    return 2;
  }

  bolted::net::PcapWriter pcap_writer;
  if (pcap_rack >= 0 && !pcap_writer.Open(pcap_path)) {
    std::fprintf(stderr, "cannot open pcap output %s\n", pcap_path.c_str());
    return 2;
  }

  const uint32_t shard_counts[] = {1, 2, 4, 8};
  std::vector<RunResult> results;
  for (const uint32_t shards : shard_counts) {
    // Workers scale with shards: the sweep measures the whole parallel
    // runtime (threads included), not just the partitioning.  Only the
    // first (oracle) configuration writes the capture — later runs would
    // append duplicate sweeps to the file.
    const bool capture = pcap_rack >= 0 && results.empty();
    results.push_back(
        RunFleet(config, shards, shards, capture ? &pcap_writer : nullptr));
  }

  // Digest cross-check against the shards=1/workers=1 oracle.
  const RunResult& oracle = results[0];
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].fleet_digest != oracle.fleet_digest ||
        results[i].rack_digests != oracle.rack_digests ||
        results[i].events != oracle.events ||
        results[i].windows != oracle.windows ||
        results[i].rack_runs != oracle.rack_runs) {
      std::fprintf(stderr,
                   "shards=%u diverged from oracle (events %" PRIu64
                   " vs %" PRIu64 ", windows %" PRIu64 " vs %" PRIu64
                   ", rack runs %" PRIu64 " vs %" PRIu64
                   ", fleet digest %016" PRIx64 " vs %016" PRIx64 ")\n",
                   shard_counts[i], results[i].events, oracle.events,
                   results[i].windows, oracle.windows, results[i].rack_runs,
                   oracle.rack_runs, results[i].fleet_digest,
                   oracle.fleet_digest);
      return 1;
    }
  }

  std::string json = "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"nodes\": %u,\n"
                "  \"racks\": %u,\n"
                "  \"host_cores\": %u,\n"
                "  \"sharding_horizon_ms\": %" PRId64 ",\n",
                total_nodes, config.racks,
                std::thread::hardware_concurrency(), horizon_ms);
  json += buf;
  const double oracle_eps =
      static_cast<double>(oracle.events) / (oracle.wall_ms / 1e3);
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const double eps = static_cast<double>(r.events) / (r.wall_ms / 1e3);
    const double ns_per_event =
        r.wall_ms * 1e6 / static_cast<double>(r.events);
    std::snprintf(buf, sizeof(buf),
                  "  \"sharding_shards%u_events\": %" PRIu64 ",\n"
                  "  \"sharding_shards%u_frames_routed\": %" PRIu64 ",\n"
                  "  \"sharding_shards%u_windows\": %" PRIu64 ",\n"
                  "  \"sharding_shards%u_wall_ms\": %.3f,\n"
                  "  \"sharding_shards%u_events_per_second\": %.0f,\n"
                  "  \"sharding_shards%u_ns_per_event\": %.1f,\n"
                  "  \"sharding_speedup_shards%u\": %.3f%s\n",
                  shard_counts[i], r.events, shard_counts[i], r.frames,
                  shard_counts[i], r.windows, shard_counts[i], r.wall_ms,
                  shard_counts[i], eps, shard_counts[i], ns_per_event,
                  shard_counts[i], oracle_eps > 0 ? eps / oracle_eps : 0.0,
                  i + 1 == results.size() ? "" : ",");
    json += buf;
  }
  json += "}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::printf("shards=%u  %9" PRIu64 " events  %8" PRIu64
                " frames  %6" PRIu64 " windows  %8.1f ms  %.2fx\n",
                shard_counts[i], r.events, r.frames, r.windows, r.wall_ms,
                oracle.wall_ms > 0 ? oracle.wall_ms / r.wall_ms : 0.0);
  }
  if (pcap_rack >= 0) {
    const uint64_t frames = pcap_writer.frames_written();
    const uint64_t bytes = pcap_writer.bytes_written();
    const bool clean = pcap_writer.Close();
    std::printf("pcap rack %" PRId64 ": %" PRIu64 " ingress frames, %" PRIu64
                " bytes -> %s%s\n",
                pcap_rack, frames, bytes, pcap_path.c_str(),
                clean ? "" : " (WRITE FAILED)");
  }
  std::printf("digest %016" PRIx64 " (all shard counts identical)\nwrote %s\n",
              oracle.fleet_digest, out_path);
  return 0;
}
