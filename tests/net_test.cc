// Network substrate tests: fluid resource sharing, VLAN isolation,
// message transport, IPsec ESP, and bulk-transfer cost modelling.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/net/ipsec.h"
#include "src/net/network.h"
#include "src/net/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace bolted::net {
namespace {

using crypto::Bytes;
using crypto::ToBytes;
using sim::Duration;
using sim::Simulation;
using sim::Task;

TEST(SharedResourceTest, SingleConsumerTakesFullCapacity) {
  Simulation sim;
  SharedResource resource(sim, 100.0, "r");  // 100 units/s
  double finished_at = -1;
  auto flow = [&]() -> Task {
    co_await resource.Consume(50.0);
    finished_at = sim.now().ToSecondsF();
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_NEAR(finished_at, 0.5, 1e-9);
}

TEST(SharedResourceTest, TwoEqualConsumersShareFairly) {
  Simulation sim;
  SharedResource resource(sim, 100.0, "r");
  std::vector<double> finish_times;
  auto flow = [&]() -> Task {
    co_await resource.Consume(100.0);
    finish_times.push_back(sim.now().ToSecondsF());
  };
  sim.Spawn(flow());
  sim.Spawn(flow());
  sim.Run();
  // Each gets 50 units/s -> both finish at t=2.
  ASSERT_EQ(finish_times.size(), 2u);
  EXPECT_NEAR(finish_times[0], 2.0, 1e-6);
  EXPECT_NEAR(finish_times[1], 2.0, 1e-6);
}

TEST(SharedResourceTest, ShortJobLeavesAndLongJobSpeedsUp) {
  Simulation sim;
  SharedResource resource(sim, 100.0, "r");
  double short_done = -1;
  double long_done = -1;
  auto short_flow = [&]() -> Task {
    co_await resource.Consume(50.0);
    short_done = sim.now().ToSecondsF();
  };
  auto long_flow = [&]() -> Task {
    co_await resource.Consume(150.0);
    long_done = sim.now().ToSecondsF();
  };
  sim.Spawn(short_flow());
  sim.Spawn(long_flow());
  sim.Run();
  // Shared at 50/s each until the short job finishes at t=1 (50 served);
  // the long job then has 100 left at 100/s -> finishes at t=2.
  EXPECT_NEAR(short_done, 1.0, 1e-6);
  EXPECT_NEAR(long_done, 2.0, 1e-6);
}

TEST(SharedResourceTest, LateArrivalSlowsExistingFlow) {
  Simulation sim;
  SharedResource resource(sim, 100.0, "r");
  double first_done = -1;
  double second_done = -1;
  auto first = [&]() -> Task {
    co_await resource.Consume(100.0);
    first_done = sim.now().ToSecondsF();
  };
  auto second = [&]() -> Task {
    co_await sim::Delay(sim, Duration::SecondsF(0.5));
    co_await resource.Consume(100.0);
    second_done = sim.now().ToSecondsF();
  };
  sim.Spawn(first());
  sim.Spawn(second());
  sim.Run();
  // First: 50 served by t=0.5, then 50/s -> 50 more takes 1s -> done 1.5.
  EXPECT_NEAR(first_done, 1.5, 1e-6);
  // Second: 50 served between 0.5 and 1.5, then full rate -> done at 2.0.
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

TEST(SharedResourceTest, ZeroAmountCompletesInstantly) {
  Simulation sim;
  SharedResource resource(sim, 100.0, "r");
  bool done = false;
  auto flow = [&]() -> Task {
    co_await resource.Consume(0.0);
    done = true;
    EXPECT_EQ(sim.now().nanoseconds(), 0);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_TRUE(done);
}

class RecordingSink final : public ConsumeSink {
 public:
  RecordingSink(Simulation& sim, std::vector<std::pair<uint64_t, int64_t>>& done)
      : sim_(sim), done_(done) {}
  void OnConsumeComplete(uint64_t token) override {
    done_.emplace_back(token, sim_.now().nanoseconds());
  }

 private:
  Simulation& sim_;
  std::vector<std::pair<uint64_t, int64_t>>& done_;
};

// However many jobs it serves, a resource holds exactly one pending event,
// its next completion, which every arrival and completion re-arms.  The
// completion instants stay the processor-sharing ones: on a resource
// serving one unit per ns, 1000 units at 0 ns, 1000 at 500 ns and 250 at
// 1000 ns finish at 1750, 2250 and 1750 ns.
TEST(SharedResourceTest, ArrivalsReArmTheOneCompletionEvent) {
  Simulation sim;
  SharedResource resource(sim, 1e9, "r");
  std::vector<std::pair<uint64_t, int64_t>> done;
  RecordingSink sink(sim, done);
  const std::pair<int64_t, double> arrivals[] = {{0, 1000}, {500, 1000},
                                                 {1000, 250}};
  size_t arrived = 0;
  for (uint64_t token = 0; token < 3; ++token) {
    sim.Schedule(Duration::Nanoseconds(arrivals[token].first),
                 [&resource, &sink, &arrived, &arrivals, token]() {
                   resource.ConsumeAsync(arrivals[token].second, &sink, token);
                   ++arrived;
                 });
  }
  while (sim.Step()) {
    const size_t active = resource.active_consumers();
    EXPECT_EQ(active, arrived - done.size());
    EXPECT_EQ(sim.pending_events(), (3 - arrived) + (active > 0 ? 1 : 0))
        << "at " << sim.now().nanoseconds() << " ns with " << active
        << " active jobs";
  }
  EXPECT_EQ(done, (std::vector<std::pair<uint64_t, int64_t>>{
                      {0, 1750}, {2, 1750}, {1, 2250}}));
}

TEST(SharedResourceTest, TotalServedAccumulates) {
  Simulation sim;
  SharedResource resource(sim, 10.0, "r");
  auto flow = [&]() -> Task { co_await resource.Consume(25.0); };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_NEAR(resource.total_served(), 25.0, 1e-6);
}

TEST(ConsumeAllTest, CompletesAtSlowestResource)
{
  Simulation sim;
  SharedResource fast(sim, 100.0, "fast");
  SharedResource slow(sim, 10.0, "slow");
  double done_at = -1;
  auto flow = [&]() -> Task {
    DemandList demands;
    demands.push_back(WeightedDemand{&fast, 20.0});
    demands.push_back(WeightedDemand{&slow, 20.0});
    co_await ConsumeAllWeighted(sim, std::move(demands));
    done_at = sim.now().ToSecondsF();
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_NEAR(done_at, 2.0, 1e-6);
}

Network MakeNet(Simulation& sim) {
  // 10 microseconds latency, 1.25 GB/s (10 Gbit) NICs.
  return Network(sim, Duration::Microseconds(10), 1.25e9);
}

TEST(NetworkTest, MessageDeliveredWithinSharedVlan) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  Endpoint& b = net.CreateEndpoint("b");
  net.AttachToVlan(a.address(), 100);
  net.AttachToVlan(b.address(), 100);

  Message received;
  auto receiver = [&]() -> Task { received = co_await b.inbox().Recv(); };
  sim.Spawn(receiver());
  a.Post(b.address(), Message{.kind = "hello", .payload = ToBytes("payload")});
  sim.Run();
  EXPECT_EQ(received.kind, "hello");
  EXPECT_EQ(received.payload, ToBytes("payload"));
  EXPECT_EQ(received.src, a.address());
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST(NetworkTest, CrossVlanTrafficIsDropped) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  Endpoint& b = net.CreateEndpoint("b");
  net.AttachToVlan(a.address(), 100);
  net.AttachToVlan(b.address(), 200);

  a.Post(b.address(), Message{.kind = "attack", .payload = ToBytes("x")});
  sim.Run();
  EXPECT_EQ(net.total_drops(), 1u);
  EXPECT_TRUE(b.inbox().empty());
  EXPECT_FALSE(net.Reachable(a.address(), b.address()));
}

TEST(NetworkTest, DetachMidFlightDropsFrame) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  Endpoint& b = net.CreateEndpoint("b");
  net.AttachToVlan(a.address(), 5);
  net.AttachToVlan(b.address(), 5);

  // A large frame that takes ~0.8s on the wire; detach after 0.1s.
  a.Post(b.address(), Message{.kind = "bulk", .wire_bytes = 1'000'000'000});
  sim.Schedule(Duration::SecondsF(0.1),
               [&]() { net.DetachFromAllVlans(b.address()); });
  sim.Run();
  EXPECT_EQ(net.total_drops(), 1u);
  EXPECT_TRUE(b.inbox().empty());
}

TEST(NetworkTest, VlanMembershipManagement) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  net.AttachToVlan(a.address(), 1);
  net.AttachToVlan(a.address(), 2);
  EXPECT_TRUE(a.InVlan(1));
  EXPECT_TRUE(a.InVlan(2));
  net.DetachFromVlan(a.address(), 1);
  EXPECT_FALSE(a.InVlan(1));
  net.DetachFromAllVlans(a.address());
  EXPECT_TRUE(a.vlans().empty());
}

TEST(NetworkTest, SnifferSeesDeliveredFrames) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  Endpoint& b = net.CreateEndpoint("b");
  net.AttachToVlan(a.address(), 7);
  net.AttachToVlan(b.address(), 7);

  std::vector<std::string> sniffed;
  net.SetSniffer([&](VlanId vlan, const Message& m) {
    EXPECT_EQ(vlan, 7);
    sniffed.push_back(std::string(m.payload.begin(), m.payload.end()));
  });
  auto receiver = [&]() -> Task { (void)co_await b.inbox().Recv(); };
  sim.Spawn(receiver());
  a.Post(b.address(), Message{.kind = "m", .payload = ToBytes("visible-to-provider")});
  sim.Run();
  ASSERT_EQ(sniffed.size(), 1u);
  EXPECT_EQ(sniffed[0], "visible-to-provider");
}

TEST(NetworkTest, TransferTimeMatchesBandwidth) {
  Simulation sim;
  Network net = MakeNet(sim);
  Endpoint& a = net.CreateEndpoint("a");
  Endpoint& b = net.CreateEndpoint("b");
  net.AttachToVlan(a.address(), 1);
  net.AttachToVlan(b.address(), 1);

  double received_at = -1;
  auto receiver = [&]() -> Task {
    (void)co_await b.inbox().Recv();
    received_at = sim.now().ToSecondsF();
  };
  sim.Spawn(receiver());
  // 1.25 GB at 1.25 GB/s -> 1 second + 10us latency.
  a.Post(b.address(), Message{.kind = "bulk", .wire_bytes = 1'250'000'000});
  sim.Run();
  EXPECT_NEAR(received_at, 1.00001, 1e-4);
}

TEST(IpsecModelTest, WireBytesAndCyclesScaleWithMtu) {
  const IpsecCostModel model;
  // Smaller MTU -> more packets -> more wire overhead and more cycles.
  EXPECT_GT(IpsecWireBytes(model, 1500, 1e9), IpsecWireBytes(model, 9000, 1e9));
  EXPECT_GT(IpsecCryptoCycles(model, true, 1500, 1e9),
            IpsecCryptoCycles(model, true, 9000, 1e9));
  // Software AES costs more than hardware.
  EXPECT_GT(IpsecCryptoCycles(model, false, 9000, 1e9),
            IpsecCryptoCycles(model, true, 9000, 1e9));
}

TEST(IpsecModelTest, CpuBoundThroughputOrdering) {
  const IpsecCostModel model;
  const double hw9000 = IpsecCpuBoundThroughput(model, true, 9000);
  const double hw1500 = IpsecCpuBoundThroughput(model, true, 1500);
  const double sw9000 = IpsecCpuBoundThroughput(model, false, 9000);
  const double sw1500 = IpsecCpuBoundThroughput(model, false, 1500);
  EXPECT_GT(hw9000, hw1500);
  EXPECT_GT(hw9000, sw9000);
  EXPECT_GT(sw9000, sw1500);
  EXPECT_GT(hw1500, sw1500);
  // The paper's best case (HW + jumbo) is about half of a 10Gbit line --
  // i.e. somewhere between 400 MB/s and 1 GB/s.
  EXPECT_GT(hw9000, 4e8);
  EXPECT_LT(hw9000, 1.0e9);
}

TEST(IpsecContextTest, SealOpenRoundTrip) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  const Bytes key(32, 0x11);
  alice.InstallSa(2, key);
  bob.InstallSa(1, key);

  const auto wire = alice.Seal(2, ToBytes("secret"));
  ASSERT_TRUE(wire.has_value());
  const auto plain = bob.Open(1, *wire);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, ToBytes("secret"));
}

TEST(IpsecContextTest, NoSaMeansNoTraffic) {
  IpsecContext ctx(1);
  EXPECT_FALSE(ctx.Seal(9, ToBytes("x")).has_value());
  EXPECT_FALSE(ctx.Open(9, Bytes(64, 0)).has_value());
  EXPECT_FALSE(ctx.HasSa(9));
}

TEST(IpsecContextTest, ReplayIsRejected) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  const Bytes key(32, 0x22);
  alice.InstallSa(2, key);
  bob.InstallSa(1, key);

  const auto wire1 = alice.Seal(2, ToBytes("one"));
  const auto wire2 = alice.Seal(2, ToBytes("two"));
  ASSERT_TRUE(bob.Open(1, *wire1).has_value());
  ASSERT_TRUE(bob.Open(1, *wire2).has_value());
  // Replaying either fails.
  EXPECT_FALSE(bob.Open(1, *wire1).has_value());
  EXPECT_FALSE(bob.Open(1, *wire2).has_value());
}

TEST(IpsecContextTest, TamperAndWrongKeyRejected) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  alice.InstallSa(2, Bytes(32, 0x33));
  bob.InstallSa(1, Bytes(32, 0x44));  // mismatched key

  auto wire = alice.Seal(2, ToBytes("data"));
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(bob.Open(1, *wire).has_value());

  bob.RemoveSa(1);
  bob.InstallSa(1, Bytes(32, 0x33));
  (*wire)[wire->size() - 1] ^= 1;
  EXPECT_FALSE(bob.Open(1, *wire).has_value());
}

TEST(IpsecContextTest, RevocationCutsTraffic) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  const Bytes key(32, 0x55);
  alice.InstallSa(2, key);
  bob.InstallSa(1, key);
  ASSERT_TRUE(alice.Seal(2, ToBytes("pre")).has_value());

  // Keylime revocation removes the SA on the healthy node.
  bob.RemoveSa(1);
  const auto wire = alice.Seal(2, ToBytes("post"));
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(bob.Open(1, *wire).has_value());
}

TEST(IpsecContextTest, DirectionsSealUnderDifferentNonces) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  const Bytes key(32, 0x66);
  alice.InstallSa(2, key);
  bob.InstallSa(1, key);

  // The first frame each way carries sequence 1 under the same pair key;
  // only the direction's salt keeps the two (key, nonce) pairs apart.
  const auto a_to_b = alice.Seal(2, ToBytes("same plaintext"));
  const auto b_to_a = bob.Seal(1, ToBytes("same plaintext"));
  ASSERT_TRUE(a_to_b.has_value());
  ASSERT_TRUE(b_to_a.has_value());
  EXPECT_NE(*a_to_b, *b_to_a);
}

TEST(IpsecContextTest, ReflectedFrameDoesNotOpen) {
  IpsecContext alice(1);
  IpsecContext bob(2);
  const Bytes key(32, 0x77);
  alice.InstallSa(2, key);
  bob.InstallSa(1, key);

  // A network that bounces Alice's frame back to her as if Bob sent it.
  const auto wire = alice.Seal(2, ToBytes("to bob"));
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(alice.Open(2, *wire).has_value());
  // The frame is still good for its real receiver.
  EXPECT_TRUE(bob.Open(1, *wire).has_value());
}

TEST(IpsecContextTest, BothDirectionsRoundTrip) {
  IpsecContext alice(7);
  IpsecContext bob(3);
  const Bytes key(32, 0x88);
  alice.InstallSa(3, key);
  bob.InstallSa(7, key);

  for (int i = 0; i < 3; ++i) {
    const Bytes ping = ToBytes("ping " + std::to_string(i));
    const Bytes pong = ToBytes("pong " + std::to_string(i));
    const auto to_bob = alice.Seal(3, ping);
    ASSERT_TRUE(to_bob.has_value());
    const auto at_bob = bob.Open(7, *to_bob);
    ASSERT_TRUE(at_bob.has_value());
    EXPECT_EQ(*at_bob, ping);
    const auto to_alice = bob.Seal(7, pong);
    ASSERT_TRUE(to_alice.has_value());
    const auto at_alice = alice.Open(3, *to_alice);
    ASSERT_TRUE(at_alice.has_value());
    EXPECT_EQ(*at_alice, pong);
  }
}

// The frame digest sees a payload only through FrameTag, so a payload
// change the tag misses is invisible to every digest-equality test.
TEST(FrameTagTest, EveryPayloadBitAndLengthChangesTheTag) {
  Message m;
  m.src = 3;
  m.dst = 4;
  m.kind = "esp";
  // Fixed wire bytes, so a payload length change reaches the tag only
  // through the payload hash.
  m.wire_bytes = 9000;
  m.payload.resize(256);
  for (size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint64_t base = FrameTag(9, m);
  auto flip = [&m](size_t bit) {
    m.payload[bit / 8] = static_cast<uint8_t>(m.payload[bit / 8] ^ (1u << (bit % 8)));
  };

  int single_misses = 0;
  for (size_t bit = 0; bit < m.payload.size() * 8; ++bit) {
    flip(bit);
    single_misses += FrameTag(9, m) == base ? 1 : 0;
    flip(bit);
  }
  EXPECT_EQ(single_misses, 0);

  // The same bit flipped in two 8-byte words: the pair that cancels in a
  // plain (h ^ w) * P lane is bit 63 in two words of one lane.
  constexpr size_t kWords = 256 / 8;
  int pair_misses = 0;
  std::string first_miss;
  for (size_t a = 0; a < kWords; ++a) {
    for (size_t b = a + 1; b < kWords; ++b) {
      for (size_t bit = 0; bit < 64; ++bit) {
        flip(64 * a + bit);
        flip(64 * b + bit);
        if (FrameTag(9, m) == base && pair_misses++ == 0) {
          first_miss = "words " + std::to_string(a) + " and " +
                       std::to_string(b) + ", bit " + std::to_string(bit);
        }
        flip(64 * a + bit);
        flip(64 * b + bit);
      }
    }
  }
  EXPECT_EQ(pair_misses, 0) << "first: " << first_miss;

  // Zero padding: the payload hash mixes in the length.
  std::set<uint64_t> padded_tags;
  for (size_t zeros = 0; zeros <= 40; ++zeros) {
    Message padded = m;
    padded.payload.resize(m.payload.size() + zeros, 0);
    padded_tags.insert(FrameTag(9, padded));
  }
  EXPECT_EQ(padded_tags.size(), 41u);
}

TEST(BulkTransferTest, IpsecSlowerThanPlainAndMtuMatters) {
  const IpsecCostModel model;
  auto run = [&](IpsecParams params) {
    Simulation sim;
    SharedResource src_nic(sim, 1.25e9, "src");
    SharedResource dst_nic(sim, 1.25e9, "dst");
    SharedResource src_cpu(sim, model.cpu_hz, "scpu");
    SharedResource dst_cpu(sim, model.cpu_hz, "dcpu");
    double done = -1;
    auto flow = [&]() -> Task {
      co_await BulkTransfer(sim, {&src_nic, &src_cpu}, {&dst_nic, &dst_cpu}, 1e9,
                            params, model);
      done = sim.now().ToSecondsF();
    };
    sim.Spawn(flow());
    sim.Run();
    return done;
  };

  const double plain = run({.enabled = false, .mtu = 9000});
  const double hw9000 = run({.enabled = true, .hardware_aes = true, .mtu = 9000});
  const double hw1500 = run({.enabled = true, .hardware_aes = true, .mtu = 1500});
  const double sw9000 = run({.enabled = true, .hardware_aes = false, .mtu = 9000});

  EXPECT_LT(plain, hw9000);
  EXPECT_LT(hw9000, hw1500);
  EXPECT_LT(hw9000, sw9000);
  // Paper Fig 3b: even HW + jumbo is about a factor of two off plain.
  EXPECT_GT(hw9000 / plain, 1.5);
  EXPECT_LT(hw9000 / plain, 3.5);
}

}  // namespace
}  // namespace bolted::net
