// Burst fast-path battery (DESIGN.md §15): the send-verdict matrix (HIL
// port moves, VLAN membership changes, link flaps, machine crashes, each
// taking effect on the next frame sent and on frames in flight) proving
// no stale delivery ever crosses an isolation boundary,
// the burst-vs-generic frame-digest parity sweep (8 seeds, fault
// injection, mid-run topology churn), the InjectFrame metric
// reconciliation (a cross-shard hop must account exactly like a local
// one), and the sharded-ingress parity run on real worker threads.
//
// Every case runs on both forwarding paths: the production burst engine
// (Endpoint::Post, Network::InjectFrame) and the coroutine-per-frame
// oracle in tests/oracle/generic_forward.h.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/network.h"
#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "tests/oracle/generic_forward.h"

namespace bolted::net {
namespace {

using sim::Duration;
using sim::Rng;
using sim::Simulation;

void BurstPost(Endpoint& from, Address dst, Message message) {
  from.Post(dst, std::move(message));
}

bool BurstInject(Network& network, Message message, VlanId tag) {
  return network.InjectFrame(std::move(message), tag);
}

// A forwarding path as the tests drive it: how a local frame is posted
// and how an uplink frame is injected.
struct Path {
  const char* name;
  void (*post)(Endpoint& from, Address dst, Message message);
  bool (*inject)(Network& network, Message message, VlanId tag);
};

constexpr Path kBurst{"burst", BurstPost, BurstInject};
constexpr Path kGeneric{"generic", oracle::Post, oracle::Inject};
constexpr Path kPaths[] = {kBurst, kGeneric};

// --- Send and delivery verdicts under topology changes ----------------------

TEST(SendVerdict, VlanDetachAndReattachApplyToTheNextFrame) {
  for (const Path& path : kPaths) {
    Simulation sim;
    Network net(sim, Duration::Microseconds(1), 1e9);
    Endpoint& a = net.CreateEndpoint("a");
    Endpoint& b = net.CreateEndpoint("b");
    net.AttachToVlan(a.address(), 5);
    net.AttachToVlan(b.address(), 5);

    Message m1;
    m1.wire_bytes = 100;
    path.post(a, b.address(), std::move(m1));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 1u);

    // (a -> b) was just deliverable; detaching b must drop the next frame.
    net.DetachFromVlan(b.address(), 5);
    Message m2;
    m2.wire_bytes = 100;
    path.post(a, b.address(), std::move(m2));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 1u);
    EXPECT_EQ(net.total_drops(), 1u);
    EXPECT_EQ(a.messages_dropped(), 1u);

    // Re-attach: the next frame is deliverable again.
    net.AttachToVlan(b.address(), 5);
    Message m3;
    m3.wire_bytes = 100;
    path.post(a, b.address(), std::move(m3));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 2u);
    EXPECT_EQ(b.inbox().size(), 2u);
  }
}

TEST(SendVerdict, PortMoveReroutesTheNextFrameOverUplinks) {
  for (const Path& path : kPaths) {
    Simulation sim;
    Network net(sim, Duration::Microseconds(1), 1e9);
    net.AddSwitch(1e9);  // switch 1
    net.AddSwitch(1e9);  // switch 2
    Endpoint& a = net.CreateEndpointOnSwitch("a", 1);
    Endpoint& b = net.CreateEndpointOnSwitch("b", 1);
    net.AttachToVlan(a.address(), 5);
    net.AttachToVlan(b.address(), 5);

    Message m1;
    m1.wire_bytes = 1000;
    path.post(a, b.address(), std::move(m1));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 1u);
    EXPECT_EQ(net.uplink(1).total_served(), 0.0);  // same-switch hop

    // HIL recables b to switch 2: the next frame must traverse both
    // uplinks.
    net.AssignToSwitch(b.address(), 2);
    Message m2;
    m2.wire_bytes = 1000;
    path.post(a, b.address(), std::move(m2));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 2u);
    EXPECT_GT(net.uplink(1).total_served(), 0.0);
    EXPECT_GT(net.uplink(2).total_served(), 0.0);
  }
}

TEST(SendVerdict, LinkFlapMidBurstDropsInFlightFrames) {
  for (const Path& path : kPaths) {
    Simulation sim;
    Network net(sim, Duration::Microseconds(1), 1e9);
    Endpoint& a = net.CreateEndpoint("a");
    Endpoint& b = net.CreateEndpoint("b");
    net.AttachToVlan(a.address(), 5);
    net.AttachToVlan(b.address(), 5);

    // A burst of four frames leaves at t=0; the link flaps while they are
    // still in flight (NIC occupancy + 1 us propagation), so every one of
    // them must be dropped at delivery time.
    sim.Schedule(Duration::Zero(), [&]() {
      for (int i = 0; i < 4; ++i) {
        Message m;
        m.wire_bytes = 1000;
        path.post(a, b.address(), std::move(m));
      }
      net.SetLinkUp(b.address(), false);
    });
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 0u);
    EXPECT_EQ(net.total_drops(), 4u);
    EXPECT_EQ(a.messages_dropped(), 4u);
    EXPECT_TRUE(b.inbox().empty());

    // Link restored: traffic flows again.
    net.SetLinkUp(b.address(), true);
    Message m;
    m.wire_bytes = 1000;
    path.post(a, b.address(), std::move(m));
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 1u);
  }
}

TEST(SendVerdict, MachineCrashQuarantinesPort) {
  for (const Path& path : kPaths) {
    Simulation sim;
    Network net(sim, Duration::Microseconds(1), 1e9);
    Endpoint& a = net.CreateEndpoint("a");
    Endpoint& b = net.CreateEndpoint("b");
    net.AttachToVlan(a.address(), 5);
    net.AttachToVlan(b.address(), 5);

    Message warm;
    warm.wire_bytes = 100;
    path.post(a, b.address(), std::move(warm));
    sim.Run();
    ASSERT_EQ(net.frames_delivered(), 1u);

    // Crash handling (see faults::): link down plus full VLAN detach.
    // Both mutations land after a frame was delivered.
    net.SetLinkUp(b.address(), false);
    net.DetachFromAllVlans(b.address());
    for (int i = 0; i < 3; ++i) {
      Message m;
      m.wire_bytes = 100;
      path.post(a, b.address(), std::move(m));
    }
    sim.Run();
    EXPECT_EQ(net.frames_delivered(), 1u);
    EXPECT_EQ(net.total_drops(), 3u);
    EXPECT_EQ(b.inbox().size(), 1u);
  }
}

// Property: across random interleavings of traffic and topology churn, a
// frame is only ever handed to a receiver that is a member of the frame's
// VLAN (and link-up) at the delivery instant.  The sniffer sees every
// delivered copy, so it is the right observation point.
TEST(SendVerdict, NoStaleDeliveryEverCrossesIsolationBoundary) {
  for (const Path& path : kPaths) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Simulation sim;
      Network net(sim, Duration::Microseconds(2), 1e9);
      constexpr int kPorts = 6;
      constexpr VlanId kVlan = 11;
      std::vector<Endpoint*> eps;
      for (int i = 0; i < kPorts; ++i) {
        Endpoint& ep = net.CreateEndpoint("p" + std::to_string(i));
        net.AttachToVlan(ep.address(), kVlan);
        eps.push_back(&ep);
      }
      uint64_t violations = 0;
      net.SetSniffer([&](VlanId vlan, const Message& m) {
        Endpoint* receiver = net.FindEndpoint(m.dst);
        if (receiver == nullptr || !receiver->InVlan(vlan) ||
            !net.LinkUp(m.dst)) {
          ++violations;
        }
      });

      Rng rng(seed * 0x9e3779b9u);
      for (int step = 0; step < 200; ++step) {
        const auto when =
            Duration::Nanoseconds(static_cast<int64_t>(rng.NextBelow(50000)));
        const auto actor = static_cast<size_t>(rng.NextBelow(kPorts));
        switch (rng.NextBelow(5)) {
          case 0:  // VLAN detach
            sim.Schedule(when, [&net, &eps, actor]() {
              net.DetachFromVlan(eps[actor]->address(), kVlan);
            });
            break;
          case 1:  // VLAN re-attach
            sim.Schedule(when, [&net, &eps, actor]() {
              net.AttachToVlan(eps[actor]->address(), kVlan);
            });
            break;
          case 2:  // link flap
            sim.Schedule(when, [&net, &eps, actor]() {
              net.SetLinkUp(eps[actor]->address(),
                            !net.LinkUp(eps[actor]->address()));
            });
            break;
          default: {  // a small burst of frames to a random peer
            const auto peer =
                (actor + 1 + rng.NextBelow(kPorts - 1)) % kPorts;
            sim.Schedule(when, [&eps, &path, actor, peer]() {
              for (int i = 0; i < 3; ++i) {
                Message m;
                m.wire_bytes = 500;
                path.post(*eps[actor], eps[peer]->address(), std::move(m));
              }
            });
            break;
          }
        }
      }
      sim.Run();
      EXPECT_EQ(violations, 0u) << "path=" << path.name << " seed=" << seed;
    }
  }
}

// --- Burst vs generic digest parity ------------------------------------------

struct ParityResult {
  uint64_t frame_digest = 0;
  uint64_t frames_delivered = 0;
  uint64_t total_drops = 0;
  uint64_t fault_drops = 0;
  uint64_t fault_duplicates = 0;
  uint64_t injected = 0;

  bool operator==(const ParityResult&) const = default;
};

// A chaos-flavored scenario: mixed-size traffic over two oversubscribed
// switches with a seeded fault filter (drops, duplicates, extra delay),
// mid-run link flaps, a port move, VLAN churn, and uplink ingress.
ParityResult RunParityScenario(const Path& path, uint64_t seed) {
  Simulation sim(seed);
  Network net(sim, Duration::Microseconds(1), 1e9);
  net.AddSwitch(4e9);
  net.AddSwitch(4e9);
  constexpr int kPorts = 12;
  constexpr VlanId kVlan = 9;
  std::vector<Endpoint*> eps;
  for (int i = 0; i < kPorts; ++i) {
    Endpoint& ep =
        net.CreateEndpointOnSwitch("n" + std::to_string(i), 1 + i % 2);
    net.AttachToVlan(ep.address(), kVlan);
    eps.push_back(&ep);
  }

  Rng fault_rng(seed ^ 0x6661756c74u);
  net.SetFaultFilter([&fault_rng](const Message&) {
    FrameFault fault;
    const uint64_t roll = fault_rng.NextBelow(20);
    if (roll == 0) {
      fault.drop = true;
    } else if (roll == 1) {
      fault.duplicates = 1;
    } else if (roll <= 3) {
      fault.extra_delay =
          Duration::Nanoseconds(static_cast<int64_t>(100 + roll * 53));
    }
    return fault;
  });

  Rng rng(seed * 0x100000001b3u + 7);
  static constexpr uint64_t kSizes[] = {0, 128, 1500, 9000};
  for (int step = 0; step < 400; ++step) {
    const auto when =
        Duration::Nanoseconds(static_cast<int64_t>(rng.NextBelow(100000)));
    const auto src = static_cast<size_t>(rng.NextBelow(kPorts));
    const auto dst = (src + 1 + rng.NextBelow(kPorts - 1)) % kPorts;
    const uint64_t size = kSizes[rng.NextBelow(4)];
    sim.Schedule(when, [&eps, &path, src, dst, size]() {
      Message m;
      m.kind = "chaos";
      m.wire_bytes = size;
      path.post(*eps[src], eps[dst]->address(), std::move(m));
    });
  }
  // Uplink ingress interleaved with local traffic.
  for (int step = 0; step < 40; ++step) {
    const auto when =
        Duration::Nanoseconds(static_cast<int64_t>(rng.NextBelow(100000)));
    const auto dst = static_cast<size_t>(rng.NextBelow(kPorts));
    sim.Schedule(when, [&net, &eps, &path, dst]() {
      Message m;
      m.dst = eps[dst]->address();
      m.src = 90001;
      m.kind = "shard.ingress";
      m.wire_bytes = 256;
      path.inject(net, std::move(m), kVlan);
    });
  }
  // Topology churn while frames are in flight.
  sim.Schedule(Duration::Nanoseconds(20000),
               [&]() { net.SetLinkUp(eps[3]->address(), false); });
  sim.Schedule(Duration::Nanoseconds(45000),
               [&]() { net.SetLinkUp(eps[3]->address(), true); });
  sim.Schedule(Duration::Nanoseconds(30000),
               [&]() { net.AssignToSwitch(eps[5]->address(), 2); });
  sim.Schedule(Duration::Nanoseconds(55000),
               [&]() { net.DetachFromVlan(eps[7]->address(), kVlan); });
  sim.Schedule(Duration::Nanoseconds(70000),
               [&]() { net.AttachToVlan(eps[7]->address(), kVlan); });
  sim.Run();

  ParityResult r;
  r.frame_digest = net.frame_digest();
  r.frames_delivered = net.frames_delivered();
  r.total_drops = net.total_drops();
  r.fault_drops = net.fault_drops();
  r.fault_duplicates = net.fault_duplicates();
  r.injected = net.injected_frames();
  return r;
}

TEST(BurstGenericParity, DigestsIdenticalAcrossPathsSchedulersAndSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const ParityResult generic = RunParityScenario(kGeneric, seed);
    EXPECT_GT(generic.frames_delivered, 0u);
    EXPECT_GT(generic.injected, 0u);
    EXPECT_EQ(RunParityScenario(kBurst, seed), generic)
        << "burst seed=" << seed;
  }
}

// --- InjectFrame metric reconciliation ---------------------------------------

#if BOLTED_OBS
struct HopMetrics {
  uint64_t forwarded = 0;
  uint64_t frame_bytes_count = 0;
  uint64_t frame_bytes_sum = 0;
  uint64_t rx_bytes = 0;

  bool operator==(const HopMetrics&) const = default;
};

HopMetrics CollectHopMetrics(const obs::Registry& registry) {
  HopMetrics m;
  m.forwarded = registry.counter("net.frames.forwarded");
  if (const obs::Histogram* h = registry.FindHistogram("net.frame_bytes")) {
    m.frame_bytes_count = h->count();
    m.frame_bytes_sum = h->sum();
  }
  m.rx_bytes = registry.counter("net.link.dst.rx_bytes");
  return m;
}

// The same five frames must account identically whether they arrive as
// local hops or as cross-shard uplink ingress (InjectFrame): forwarded
// count, the per-delivery size histogram, and the per-link rx byte
// counter.  (tx bytes stay local to the sending rack by design.)
TEST(InjectParity, CrossShardHopAccountsLikeLocalHop) {
  constexpr uint64_t kSizes[] = {100, 1500, 9000, 64, 700};

  for (const Path& path : kPaths) {
    HopMetrics local;
    {
      Simulation sim;
      obs::Registry registry(sim);
      Network net(sim, Duration::Microseconds(1), 1e9);
      Endpoint& src = net.CreateEndpoint("src");
      Endpoint& dst = net.CreateEndpoint("dst");
      net.AttachToVlan(src.address(), 5);
      net.AttachToVlan(dst.address(), 5);
      for (const uint64_t size : kSizes) {
        Message m;
        m.wire_bytes = size;
        path.post(src, dst.address(), std::move(m));
      }
      sim.Run();
      local = CollectHopMetrics(registry);
      EXPECT_EQ(local.forwarded, 5u);
      EXPECT_EQ(local.frame_bytes_count, 5u);
    }

    HopMetrics injected;
    {
      Simulation sim;
      obs::Registry registry(sim);
      Network net(sim, Duration::Microseconds(1), 1e9);
      net.CreateEndpoint("src");  // same port layout, src stays silent
      Endpoint& dst = net.CreateEndpoint("dst");
      net.AttachToVlan(dst.address(), 5);
      for (const uint64_t size : kSizes) {
        Message m;
        m.dst = dst.address();
        m.src = 9001;
        m.wire_bytes = size;
        EXPECT_TRUE(path.inject(net, std::move(m), 5));
      }
      sim.Run();
      EXPECT_EQ(net.injected_frames(), 5u);
      injected = CollectHopMetrics(registry);
    }

    EXPECT_EQ(injected, local) << "path=" << path.name;
  }
}
#endif  // BOLTED_OBS

// --- Sharded ingress parity (runs on real worker threads) --------------------

// Each rack hosts its own Network; cross-rack frames enter the
// destination rack through InjectFrame.  The per-rack *frame* digests —
// the delivered multiset, comparable across forwarding paths — must be
// identical for burst vs generic, across shard/worker counts.  This is
// also the TSan workload for the burst engine: bursts run inside the
// sharded runtime's worker pool.
TEST(ShardedIngress, BurstMatchesGenericAcrossShardCounts) {
  constexpr uint32_t kRacks = 4;
  constexpr VlanId kVlan = 7;

  auto run = [&](uint32_t shards, uint32_t workers, const Path& path) {
    sim::ShardOptions options;
    options.racks = kRacks;
    options.shards = shards;
    options.workers = workers;
    options.seed = 4321;
    options.lookahead = Duration::Microseconds(50);
    sim::ShardedFleet fleet(options);

    struct RackNet {
      std::unique_ptr<Network> network;
      Address port = 0;
    };
    std::vector<RackNet> nets(kRacks);
    for (uint32_t r = 0; r < kRacks; ++r) {
      sim::Rack& rack = fleet.rack(r);
      nets[r].network = std::make_unique<Network>(
          rack.sim(), Duration::Microseconds(10), 1e9);
      Endpoint& port =
          nets[r].network->CreateEndpoint("uplink-" + std::to_string(r));
      nets[r].network->AttachToVlan(port.address(), kVlan);
      nets[r].port = port.address();
    }

    fleet.set_frame_handler(
        [&fleet, &nets, &path, kVlan](sim::Rack& rack,
                                      const sim::CrossShardFrame& frame) {
          Message message;
          message.dst = nets[rack.index()].port;
          message.src = 9000 + frame.src_rack;
          message.kind = "shard.ingress";
          message.wire_bytes = frame.bytes;
          path.inject(*nets[rack.index()].network, std::move(message), kVlan);
          if (frame.payload0 > 0) {
            rack.Send((rack.index() + 1) % fleet.num_racks(),
                      fleet.lookahead() +
                          Duration::Microseconds(frame.bytes % 5),
                      frame.kind, frame.bytes + 1, frame.payload0 - 1);
          }
        });

    for (uint32_t r = 0; r < kRacks; ++r) {
      sim::Rack& rack = fleet.rack(r);
      rack.sim().Schedule(Duration::Microseconds(2 + r), [&fleet, &rack] {
        rack.Send((rack.index() + 1) % fleet.num_racks(), fleet.lookahead(),
                  /*kind=*/21, /*bytes=*/100, /*hops=*/6);
      });
    }
    fleet.Run();

    std::vector<uint64_t> digests;
    uint64_t delivered = 0;
    for (const RackNet& rack_net : nets) {
      digests.push_back(rack_net.network->frame_digest());
      delivered += rack_net.network->frames_delivered();
    }
    return std::pair<std::vector<uint64_t>, uint64_t>(digests, delivered);
  };

  const auto [oracle_digests, oracle_delivered] = run(1, 1, kBurst);
  EXPECT_GT(oracle_delivered, 0u);
  EXPECT_EQ(run(1, 1, kGeneric),
            std::make_pair(oracle_digests, oracle_delivered));
  for (const auto& [shards, workers] :
       {std::pair<uint32_t, uint32_t>{2, 2}, {4, 2}, {4, 4}}) {
    EXPECT_EQ(run(shards, workers, kBurst),
              std::make_pair(oracle_digests, oracle_delivered))
        << shards << "s/" << workers << "w burst";
    EXPECT_EQ(run(shards, workers, kGeneric),
              std::make_pair(oracle_digests, oracle_delivered))
        << shards << "s/" << workers << "w generic";
  }
}

}  // namespace
}  // namespace bolted::net
