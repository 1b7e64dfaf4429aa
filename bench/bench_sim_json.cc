// Simulation-kernel throughput on the timing wheel, plus switch
// forwarding throughput: the burst fast path vs the generic-path oracle.
//
// Three synthetic workloads exercise the scheduler shapes the datacenter
// simulation actually produces, at fleet scale:
//
//   churn    — 4096 nodes each arming a 30 s timeout per operation and
//              cancelling it when the (short) operation completes: the
//              RPC/retry-timer pattern.  Timeouts virtually never fire,
//              so a lazily-deleting heap would drown in tombstones while
//              the wheel unlinks in O(1).
//   pingpong — 64 chains of back-to-back 1 ns events: pure drain-path
//              throughput, batches of same-instant events every step.
//   mixed    — a steady population of events with log-uniform delays from
//              100 ns to ~11 days (so wheel levels 0–8 all hold events;
//              level 8 starts at 2^48 ns ≈ 3.3 days), with random
//              cancel/re-arm churn.
//
// Each runs on the production Simulation and reports host-side events per
// second.  tests/scheduler_test.cc holds the wheel equivalent to the
// binary-heap oracle; the wheel-vs-heap speedups measured when the wheel
// landed are recorded in DESIGN.md §10.
//
// Two additional workloads (net_pingpong, net_mixed) drive a simulated
// Network and compare the burst forwarding fast path against the generic
// coroutine-per-frame path, the test-only oracle in
// tests/oracle/generic_forward.h (DESIGN.md §15); there the invariant is
// the frame trace digest and the headline is frames/second.
//
// Usage: bench_sim_json [output-path] [--events=N]
//   (default output: BENCH_sim.json; --events scales every workload, e.g.
//    --events=50000 for a CI smoke run.)

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_cli.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "tests/oracle/generic_forward.h"

namespace {

using bolted::net::Address;
using bolted::net::Endpoint;
using bolted::net::FrameFault;
using bolted::net::Message;
using bolted::net::Network;
using bolted::sim::Duration;
using bolted::sim::EventId;
using bolted::sim::Rng;
using bolted::sim::Simulation;

using Clock = std::chrono::steady_clock;

struct RunResult {
  uint64_t events = 0;
  double wall_ms = 0;
};

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// --- churn ------------------------------------------------------------------

class ChurnDriver {
 public:
  ChurnDriver(Simulation& sim, int nodes, uint64_t operations)
      : sim_(sim), rng_(0x636875726eu), timeouts_(static_cast<size_t>(nodes)),
        remaining_(operations) {}

  void Start() {
    for (size_t i = 0; i < timeouts_.size(); ++i) {
      if (remaining_ == 0) {
        return;
      }
      --remaining_;
      Arm(static_cast<uint32_t>(i));
    }
  }

 private:
  void Arm(uint32_t node) {
    timeouts_[node] = sim_.Schedule(Duration::Seconds(30), []() {});
    const auto delay = static_cast<int64_t>(100 + rng_.NextBelow(10000));
    sim_.Schedule(Duration::Nanoseconds(delay),
                  [this, node]() { Complete(node); });
  }

  void Complete(uint32_t node) {
    sim_.Cancel(timeouts_[node]);
    if (remaining_ > 0) {
      --remaining_;
      Arm(node);
    }
  }

  Simulation& sim_;
  Rng rng_;
  std::vector<EventId> timeouts_;
  uint64_t remaining_;
};

RunResult RunChurn(uint64_t operations) {
  Simulation sim(1);
  ChurnDriver driver(sim, 4096, operations);
  driver.Start();
  const auto start = Clock::now();
  sim.Run();
  RunResult r;
  r.wall_ms = MillisSince(start);
  r.events = sim.events_processed();
  return r;
}

// --- pingpong ---------------------------------------------------------------

class PingPongDriver {
 public:
  PingPongDriver(Simulation& sim, int chains, uint64_t operations)
      : sim_(sim), remaining_(operations) {
    for (int i = 0; i < chains; ++i) {
      Step();
    }
  }

 private:
  void Step() {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    sim_.Schedule(Duration::Nanoseconds(1), [this]() { Step(); });
  }

  Simulation& sim_;
  uint64_t remaining_;
};

RunResult RunPingPong(uint64_t operations) {
  Simulation sim(2);
  PingPongDriver driver(sim, 64, operations);
  const auto start = Clock::now();
  sim.Run();
  RunResult r;
  r.wall_ms = MillisSince(start);
  r.events = sim.events_processed();
  return r;
}

// --- mixed ------------------------------------------------------------------

class MixedDriver {
 public:
  MixedDriver(Simulation& sim, int population, uint64_t operations)
      : sim_(sim), rng_(0x6d69786564u), slots_(static_cast<size_t>(population)),
        remaining_(operations) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      Spawn(static_cast<uint32_t>(i));
    }
  }

 private:
  Duration RandomDelay() {
    // Log-uniform over [100 ns, ~10^15 ns): most events are near-term, but
    // wheel levels 0–8 all see traffic.
    const double exponent = 2.0 + rng_.NextDouble() * 13.0;
    return Duration::Nanoseconds(static_cast<int64_t>(std::pow(10.0, exponent)));
  }

  void Spawn(uint32_t slot) {
    slots_[slot] = sim_.Schedule(RandomDelay(), [this, slot]() { Fire(slot); });
  }

  void Fire(uint32_t slot) {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    Spawn(slot);
    // A third of operations also cancel and re-arm a random other slot —
    // its pending event may sit on any of wheel levels 0–8.
    if (rng_.NextDouble() < 0.33) {
      const auto victim =
          static_cast<uint32_t>(rng_.NextBelow(slots_.size()));
      sim_.Cancel(slots_[victim]);
      Spawn(victim);
    }
  }

  Simulation& sim_;
  Rng rng_;
  std::vector<EventId> slots_;
  uint64_t remaining_;
};

RunResult RunMixed(uint64_t operations) {
  Simulation sim(3);
  MixedDriver driver(sim, 8192, operations);
  const auto start = Clock::now();
  // The long tail of far-future events never fires; run until the churn
  // budget is exhausted, then stop at the current instant.
  while (sim.events_processed() < operations && sim.Step()) {
  }
  RunResult r;
  r.wall_ms = MillisSince(start);
  r.events = sim.events_processed();
  return r;
}

// --- network forwarding: burst fast path vs generic -------------------------
//
// Two Network-level workloads compare the flight engine (DESIGN.md §15)
// against the coroutine-per-frame oracle on the same seeded traffic.  The
// cross-run invariant is Network::frame_digest() — the delivered-frame
// multiset per sim instant — which must be byte-identical between paths;
// the kernel (when, seq) digest cannot be compared here because the two
// paths intentionally produce different event structures.

struct NetRunResult {
  uint64_t frames = 0;  // delivered copies
  double wall_ms = 0;
  uint64_t frame_digest = 0;
};

// How a workload posts a frame: the production burst engine or the
// generic-path oracle.
using PostFn = void (*)(Endpoint& from, Address dst, Message message);

void BurstPost(Endpoint& from, Address dst, Message message) {
  from.Post(dst, std::move(message));
}

// Echoes `rounds` received frames back to `peer`.
bolted::sim::Task EchoLoop(Endpoint& self, Address peer, uint64_t rounds,
                           PostFn post) {
  for (uint64_t i = 0; i < rounds; ++i) {
    (void)co_await self.inbox().Recv();
    Message reply;
    reply.kind = "pong";
    reply.wire_bytes = 200;
    post(self, peer, std::move(reply));
  }
}

// 64 endpoint pairs playing frame ping-pong: every delivery immediately
// triggers the reply, so the whole run is same-instant-heavy burst
// traffic — the shape run-to-completion delivery exists for.
NetRunResult RunNetPingPong(PostFn post, uint64_t frames) {
  Simulation sim(4);
  Network net(sim, Duration::Microseconds(1), 1.25e9);

  constexpr int kPairs = 64;
  const uint64_t rounds = frames / (2 * kPairs) + 1;
  std::vector<Endpoint*> eps;
  for (int i = 0; i < 2 * kPairs; ++i) {
    Endpoint& ep = net.CreateEndpoint("pp" + std::to_string(i));
    net.AttachToVlan(ep.address(), 100);
    eps.push_back(&ep);
  }
  for (int p = 0; p < kPairs; ++p) {
    Endpoint& a = *eps[static_cast<size_t>(2 * p)];
    Endpoint& b = *eps[static_cast<size_t>(2 * p + 1)];
    sim.Spawn(EchoLoop(a, b.address(), rounds, post));
    sim.Spawn(EchoLoop(b, a.address(), rounds, post));
    Message serve;
    serve.kind = "ping";
    serve.wire_bytes = 200;
    post(a, b.address(), std::move(serve));
  }

  const auto start = Clock::now();
  sim.Run();
  NetRunResult r;
  r.wall_ms = MillisSince(start);
  r.frames = net.frames_delivered();
  r.frame_digest = net.frame_digest();
  return r;
}

// 128 endpoints across 4 oversubscribed ToR switches firing frames of
// mixed sizes at random peers, with a seeded fault filter dropping,
// duplicating, and delaying a slice of the traffic — the steady-state
// control-plane shape, cross-switch uplink contention included.
class NetMixedDriver {
 public:
  NetMixedDriver(Simulation& sim, std::vector<Endpoint*>& eps,
                 uint64_t frames, PostFn post)
      : sim_(sim), eps_(eps), rng_(0x6e65746d69786564u), remaining_(frames),
        post_(post) {}

  void Start() {
    for (size_t i = 0; i < eps_.size(); ++i) {
      sim_.Schedule(Duration::Nanoseconds(static_cast<int64_t>(1 + 97 * i)),
                    [this, i]() { Step(static_cast<uint32_t>(i)); });
    }
  }

 private:
  void Step(uint32_t idx) {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    const auto peer = static_cast<uint32_t>(rng_.NextBelow(eps_.size() - 1));
    Endpoint* dst = eps_[(idx + 1 + peer) % eps_.size()];
    static constexpr uint64_t kSizes[] = {200, 1500, 9000};
    Message m;
    m.kind = "mix";
    m.wire_bytes = kSizes[rng_.NextBelow(3)];
    post_(*eps_[idx], dst->address(), std::move(m));
    const auto next = static_cast<int64_t>(500 + rng_.NextBelow(4000));
    sim_.Schedule(Duration::Nanoseconds(next), [this, idx]() { Step(idx); });
  }

  Simulation& sim_;
  std::vector<Endpoint*>& eps_;
  Rng rng_;
  uint64_t remaining_;
  PostFn post_;
};

NetRunResult RunNetMixed(PostFn post, uint64_t frames) {
  Simulation sim(5);
  Network net(sim, Duration::Microseconds(1), 1.25e9);
  for (int s = 0; s < 4; ++s) {
    net.AddSwitch(12.5e9);
  }
  std::vector<Endpoint*> eps;
  for (int i = 0; i < 128; ++i) {
    Endpoint& ep =
        net.CreateEndpointOnSwitch("mx" + std::to_string(i), 1 + i % 4);
    net.AttachToVlan(ep.address(), 100);
    eps.push_back(&ep);
  }
  // Deterministic fault slice: the filter is probed once per frame that
  // passed the VLAN check, in send order — identical on both paths, so
  // the rng stream (and thus the digest) stays comparable.
  Rng fault_rng(0x6661756c74u);
  net.SetFaultFilter([&fault_rng](const Message&) {
    FrameFault fault;
    const uint64_t roll = fault_rng.NextBelow(100);
    if (roll < 2) {
      fault.drop = true;
    } else if (roll < 5) {
      fault.duplicates = 1;
    } else if (roll < 10) {
      fault.extra_delay =
          Duration::Nanoseconds(static_cast<int64_t>(500 + roll * 37));
    }
    return fault;
  });

  NetMixedDriver driver(sim, eps, frames, post);
  driver.Start();
  const auto start = Clock::now();
  sim.Run();
  NetRunResult r;
  r.wall_ms = MillisSince(start);
  r.frames = net.frames_delivered();
  r.frame_digest = net.frame_digest();
  return r;
}

struct NetWorkloadRow {
  const char* name;
  NetRunResult generic;  // generic-path oracle
  NetRunResult burst;    // production burst engine
};

void AppendNetRow(std::string& json, const NetWorkloadRow& row, bool last) {
  char buf[1024];
  const double generic_fps =
      static_cast<double>(row.generic.frames) / (row.generic.wall_ms / 1e3);
  const double burst_fps =
      static_cast<double>(row.burst.frames) / (row.burst.wall_ms / 1e3);
  const double generic_ns =
      row.generic.wall_ms * 1e6 / static_cast<double>(row.generic.frames);
  const double burst_ns =
      row.burst.wall_ms * 1e6 / static_cast<double>(row.burst.frames);
  std::snprintf(buf, sizeof(buf),
                "  \"%s_frames\": %" PRIu64 ",\n"
                "  \"%s_generic_wall_ms\": %.3f,\n"
                "  \"%s_burst_wall_ms\": %.3f,\n"
                "  \"%s_generic_frames_per_second\": %.0f,\n"
                "  \"%s_burst_frames_per_second\": %.0f,\n"
                "  \"%s_generic_ns_per_frame\": %.1f,\n"
                "  \"%s_burst_ns_per_frame\": %.1f,\n"
                "  \"%s_burst_speedup\": %.3f%s\n",
                row.name, row.burst.frames, row.name, row.generic.wall_ms,
                row.name, row.burst.wall_ms, row.name, generic_fps, row.name,
                burst_fps, row.name, generic_ns, row.name, burst_ns, row.name,
                generic_fps > 0 ? burst_fps / generic_fps : 0.0,
                last ? "" : ",");
  json += buf;
}

struct WorkloadRow {
  const char* name;
  RunResult wheel;
};

// Scheduler rows always precede the net rows, so each ends with a comma.
void AppendRow(std::string& json, const WorkloadRow& row) {
  char buf[512];
  const double eps =
      static_cast<double>(row.wheel.events) / (row.wheel.wall_ms / 1e3);
  const double ns =
      row.wheel.wall_ms * 1e6 / static_cast<double>(row.wheel.events);
  std::snprintf(buf, sizeof(buf),
                "  \"%s_events\": %" PRIu64 ",\n"
                "  \"%s_wheel_wall_ms\": %.3f,\n"
                "  \"%s_wheel_events_per_second\": %.0f,\n"
                "  \"%s_wheel_ns_per_event\": %.1f,\n",
                row.name, row.wheel.events, row.name, row.wheel.wall_ms,
                row.name, eps, row.name, ns);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t base_events = 2'000'000;
  const char* out_path =
      bolted::bench::Cli("usage: bench_sim_json [output-path] [--events=N]",
                         "BENCH_sim.json")
          .Number("--events", &base_events)
          .Parse(argc, argv);

  const WorkloadRow rows[] = {
      {"churn", RunChurn(base_events)},
      {"pingpong", RunPingPong(base_events)},
      {"mixed", RunMixed(base_events / 2)},
  };

  const uint64_t net_frames = base_events / 8;
  const NetWorkloadRow net_rows[] = {
      {"net_pingpong", RunNetPingPong(bolted::oracle::Post, net_frames),
       RunNetPingPong(BurstPost, net_frames)},
      {"net_mixed", RunNetMixed(bolted::oracle::Post, net_frames),
       RunNetMixed(BurstPost, net_frames)},
  };

  // The frame digest (delivered multiset per instant) must be identical
  // between the burst and generic paths.
  for (const NetWorkloadRow& row : net_rows) {
    if (row.burst.frame_digest != row.generic.frame_digest ||
        row.burst.frames != row.generic.frames) {
      std::fprintf(stderr,
                   "%s: forwarding-path divergence (generic %" PRIu64
                   " frames digest %016" PRIx64 ", burst %" PRIu64
                   " frames digest %016" PRIx64 ")\n",
                   row.name, row.generic.frames, row.generic.frame_digest,
                   row.burst.frames, row.burst.frame_digest);
      return 1;
    }
  }

  std::string json = "{\n";
  for (const WorkloadRow& row : rows) {
    AppendRow(json, row);
  }
  for (size_t i = 0; i < 2; ++i) {
    AppendNetRow(json, net_rows[i], i == 1);
  }
  json += "}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  for (const WorkloadRow& row : rows) {
    std::printf("%-12s %9" PRIu64 " events  wheel %8.1f ms  %6.1f ns/event\n",
                row.name, row.wheel.events, row.wheel.wall_ms,
                row.wheel.wall_ms * 1e6 / static_cast<double>(row.wheel.events));
  }
  for (const NetWorkloadRow& row : net_rows) {
    const double speedup = row.generic.wall_ms / row.burst.wall_ms;
    std::printf("%-12s %9" PRIu64 " frames  generic   %8.1f ms  burst %8.1f ms  speedup %.2fx\n",
                row.name, row.burst.frames, row.generic.wall_ms,
                row.burst.wall_ms, speedup);
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
