// Switch-saturation microbench: N-port all-to-all frame blast, burst
// fast path vs the generic coroutine-per-frame path (DESIGN.md §15).
//
// Every port posts one frame to every other port at the same instant,
// repeated for a configurable number of rounds — the densest burst shape
// the fabric produces, and the one where per-frame scheduler round-trips
// hurt most.  The identical seeded workload runs on two legs:
//
//   generic — the original forwarding path, kept as the test-only oracle
//             in tests/oracle/generic_forward.h
//   burst   — the production flight engine (the headline number)
//
// The legs run in kPairs interleaved pairs, generic first on odd pairs and
// burst first on even ones, so host drift between pairs lands on both legs
// alike.  Every leg must produce the same delivered-frame count and the
// same frame trace digest (Network::frame_digest — delivered multiset per
// sim instant); a mismatch is a correctness bug and the bench fails.  The
// headline is host-side frames/second from each leg's median wall time,
// and the bench self-enforces the >= 2x burst-vs-generic floor on the
// median of the per-pair ratios, which scripts/bench_guard.py also checks
// on the emitted JSON.
//
// Usage: switch_saturation [output-path] [--ports=N] [--rounds=R]
//   (default: 64 ports, 48 rounds — ~193k frames — writing BENCH_net.json)

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_cli.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "tests/oracle/generic_forward.h"

namespace {

using bolted::net::Address;
using bolted::net::Endpoint;
using bolted::net::Message;
using bolted::net::Network;
using bolted::sim::Duration;
using bolted::sim::Simulation;

using Clock = std::chrono::steady_clock;

// Interleaved generic/burst pairs; odd, so the median is one pair's ratio.
constexpr int kPairs = 5;

// How the blast posts a frame: the production burst engine or the
// generic-path oracle.
using PostFn = void (*)(Endpoint& from, Address dst, Message message);

void BurstPost(Endpoint& from, Address dst, Message message) {
  from.Post(dst, std::move(message));
}

struct RunResult {
  uint64_t frames = 0;
  double wall_ms = 0;
  uint64_t frame_digest = 0;
};

RunResult RunBlast(PostFn post, int ports, int rounds) {
  Simulation sim(0x73617475u);  // "satu"
  Network net(sim, Duration::Microseconds(1), 1.25e9);

  std::vector<Endpoint*> eps;
  eps.reserve(static_cast<size_t>(ports));
  for (int i = 0; i < ports; ++i) {
    Endpoint& ep = net.CreateEndpoint("port" + std::to_string(i));
    net.AttachToVlan(ep.address(), 100);
    eps.push_back(&ep);
  }

  // One round = every port fires a frame at every other port, all at the
  // same instant.  Rounds are spaced far enough apart (1500 B x (N-1)
  // frames per NIC at 1.25 GB/s is ~75 us) that each blast fully drains.
  for (int round = 0; round < rounds; ++round) {
    sim.Schedule(Duration::Microseconds(static_cast<int64_t>(200) * round),
                 [&eps, post]() {
      const int n = static_cast<int>(eps.size());
      for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
          if (dst == src) {
            continue;
          }
          Message m;
          m.kind = "blast";
          m.wire_bytes = 1500;
          post(*eps[static_cast<size_t>(src)],
               eps[static_cast<size_t>(dst)]->address(), std::move(m));
        }
      }
    });
  }

  const auto start = Clock::now();
  sim.Run();
  RunResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  r.frames = net.frames_delivered();
  r.frame_digest = net.frame_digest();
  return r;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  int ports = 64;
  int rounds = 48;
  const char* out_path =
      bolted::bench::Cli(
          "usage: switch_saturation [output-path] [--ports=N] [--rounds=R]",
          "BENCH_net.json")
          .Number("--ports", &ports)
          .Number("--rounds", &rounds)
          .Parse(argc, argv);
  if (ports < 2) {
    std::fprintf(stderr, "need --ports>=2\n");
    return 2;
  }

  const uint64_t expected = static_cast<uint64_t>(rounds) * ports * (ports - 1);
  uint64_t digest = 0;
  std::vector<double> generic_ms;
  std::vector<double> burst_ms;
  std::vector<double> ratios;
  for (int pair = 1; pair <= kPairs; ++pair) {
    RunResult generic;
    RunResult burst;
    if (pair % 2 == 1) {
      generic = RunBlast(bolted::oracle::Post, ports, rounds);
      burst = RunBlast(BurstPost, ports, rounds);
    } else {
      burst = RunBlast(BurstPost, ports, rounds);
      generic = RunBlast(bolted::oracle::Post, ports, rounds);
    }
    if (pair == 1) {
      digest = generic.frame_digest;
    }
    const RunResult* legs[] = {&generic, &burst};
    const char* names[] = {"generic", "burst"};
    for (int i = 0; i < 2; ++i) {
      if (legs[i]->frames != expected || legs[i]->frame_digest != digest) {
        std::fprintf(stderr,
                     "%s diverged in pair %d: %" PRIu64
                     " frames (expected %" PRIu64 "), digest %016" PRIx64
                     " vs %016" PRIx64 "\n",
                     names[i], pair, legs[i]->frames, expected,
                     legs[i]->frame_digest, digest);
        return 1;
      }
    }
    generic_ms.push_back(generic.wall_ms);
    burst_ms.push_back(burst.wall_ms);
    ratios.push_back(burst.wall_ms > 0 ? generic.wall_ms / burst.wall_ms : 0.0);
  }

  const double frames = static_cast<double>(expected);
  const double generic_wall_ms = Median(generic_ms);
  const double burst_wall_ms = Median(burst_ms);
  const double generic_fps = frames / (generic_wall_ms / 1e3);
  const double burst_fps = frames / (burst_wall_ms / 1e3);
  const double generic_ns = generic_wall_ms * 1e6 / frames;
  const double burst_ns = burst_wall_ms * 1e6 / frames;
  const double speedup = Median(ratios);

  std::string json = "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"ports\": %d,\n"
                "  \"rounds\": %d,\n"
                "  \"host_cores\": %u,\n"
                "  \"saturation_frames\": %" PRIu64 ",\n"
                "  \"saturation_generic_wall_ms\": %.3f,\n"
                "  \"saturation_burst_wall_ms\": %.3f,\n"
                "  \"saturation_generic_frames_per_second\": %.0f,\n"
                "  \"saturation_burst_frames_per_second\": %.0f,\n"
                "  \"saturation_generic_ns_per_frame\": %.1f,\n"
                "  \"saturation_burst_ns_per_frame\": %.1f,\n"
                "  \"saturation_burst_speedup\": %.3f\n",
                ports, rounds, std::thread::hardware_concurrency(),
                expected, generic_wall_ms, burst_wall_ms, generic_fps,
                burst_fps, generic_ns, burst_ns, speedup);
  json += buf;
  json += "}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  std::printf("%-8s %9" PRIu64 " frames  %8.1f ms  %12.0f frames/s  %7.1f ns/frame\n",
              "generic", expected, generic_wall_ms, generic_fps, generic_ns);
  std::printf("%-8s %9" PRIu64 " frames  %8.1f ms  %12.0f frames/s  %7.1f ns/frame\n",
              "burst", expected, burst_wall_ms, burst_fps, burst_ns);
  std::printf("digest %016" PRIx64 " (every leg identical)\n", digest);
  std::printf("pair ratios");
  for (const double ratio : ratios) {
    std::printf(" %.2f", ratio);
  }
  std::printf("\nburst speedup %.2fx (median of %d pairs)\nwrote %s\n",
              speedup, kPairs, out_path);

  // Self-enforced floor: the whole point of the fast path.
  if (speedup < 2.0) {
    std::fprintf(stderr, "median burst speedup %.2fx below the 2x floor\n",
                 speedup);
    return 1;
  }
  return 0;
}
