// Traffic-shaping tests: the provider-visible channel must be a constant
// stream of uniform cells, indistinguishable between data and idle.

#include <gtest/gtest.h>

#include <set>

#include "src/net/shaping.h"

namespace bolted::net {
namespace {

using crypto::Bytes;
using sim::Duration;
using sim::Simulation;
using sim::Task;

TEST(ShapingMathTest, CellAccounting) {
  const ShapingPolicy policy{.cell_bytes = 1024, .cells_per_second = 100};
  EXPECT_EQ(CellsFor(policy, 0), 0u);
  EXPECT_EQ(CellsFor(policy, 1), 1u);
  EXPECT_EQ(CellsFor(policy, 1024), 1u);
  EXPECT_EQ(CellsFor(policy, 1025), 2u);
  EXPECT_EQ(PaddedBytes(policy, 1500), 2048u);
  EXPECT_DOUBLE_EQ(PaddingOverhead(policy, 512), 2.0);
  EXPECT_DOUBLE_EQ(PaddingOverhead(policy, 0), 1.0);
  EXPECT_NEAR(DrainTime(policy, 1500, 3).ToSecondsF(), 0.05, 1e-9);
}

struct ShapingFixture : public ::testing::Test {
  Simulation sim;
  Network fabric{sim, Duration::Microseconds(10), 1.25e9};
  Endpoint& a{fabric.CreateEndpoint("a")};
  Endpoint& b{fabric.CreateEndpoint("b")};
  IpsecContext ipsec_a{a.address()};
  IpsecContext ipsec_b{b.address()};

  void SetUp() override {
    fabric.AttachToVlan(a.address(), 9);
    fabric.AttachToVlan(b.address(), 9);
    const Bytes key(32, 0x42);
    ipsec_a.InstallSa(b.address(), key);
    ipsec_b.InstallSa(a.address(), key);
  }
};

TEST_F(ShapingFixture, ProviderSeesOnlyUniformCells) {
  const ShapingPolicy policy{.cell_bytes = 4096, .cells_per_second = 1000};
  ShapedChannel channel(sim, a, b.address(), ipsec_a, policy);

  std::set<size_t> observed_sizes;
  int frames = 0;
  fabric.SetSniffer([&](VlanId, const Message& m) {
    if (m.kind == "shaped.cell") {
      observed_sizes.insert(m.payload.size());
      ++frames;
    }
  });
  auto drain = [&]() -> Task {
    for (;;) {
      (void)co_await b.inbox().Recv();
    }
  };
  sim.Spawn(drain());

  // Bursty application traffic with radically different message sizes.
  channel.Submit(Bytes(100, 1));
  channel.Submit(Bytes(20000, 2));
  sim.Spawn(channel.RunClock(50));
  sim.Run();

  EXPECT_EQ(frames, 50);
  // One wire size for everything: no size channel.
  ASSERT_EQ(observed_sizes.size(), 1u);
  EXPECT_EQ(channel.data_cells_sent(), 1u + CellsFor(policy, 20000));
  EXPECT_EQ(channel.chaff_cells_sent(),
            50u - channel.data_cells_sent());
}

TEST_F(ShapingFixture, ChaffIsIndistinguishableCiphertext) {
  const ShapingPolicy policy{.cell_bytes = 2048, .cells_per_second = 500};
  ShapedChannel channel(sim, a, b.address(), ipsec_a, policy);

  std::vector<Bytes> captured;
  fabric.SetSniffer([&](VlanId, const Message& m) {
    if (m.kind == "shaped.cell") {
      captured.push_back(m.payload);
    }
  });
  auto drain = [&]() -> Task {
    for (;;) {
      (void)co_await b.inbox().Recv();
    }
  };
  sim.Spawn(drain());
  channel.Submit(Bytes(1000, 0xaa));  // one data cell among chaff
  sim.Spawn(channel.RunClock(10));
  sim.Run();

  ASSERT_EQ(captured.size(), 10u);
  // All ciphertexts unique (fresh nonces) and none contains long zero
  // runs that would reveal padding.
  std::set<Bytes> unique(captured.begin(), captured.end());
  EXPECT_EQ(unique.size(), captured.size());
  // The receiver can still tell: data cells decrypt with length > 0.
  int data_seen = 0;
  for (const Bytes& frame : captured) {
    const auto plain = ipsec_b.Open(a.address(), frame);
    ASSERT_TRUE(plain.has_value());
    const uint32_t length = (static_cast<uint32_t>((*plain)[0]) << 24) |
                            (static_cast<uint32_t>((*plain)[1]) << 16) |
                            (static_cast<uint32_t>((*plain)[2]) << 8) |
                            (*plain)[3];
    if (length > 0) {
      ++data_seen;
    }
  }
  EXPECT_EQ(data_seen, 1);
}

TEST_F(ShapingFixture, NoSaMeansNoEmission) {
  const ShapingPolicy policy;
  IpsecContext empty(a.address());
  ShapedChannel channel(sim, a, b.address(), empty, policy);
  channel.Submit(Bytes(100, 1));
  sim.Spawn(channel.RunClock(5));
  sim.Run();
  EXPECT_EQ(channel.data_cells_sent(), 0u);
  EXPECT_EQ(channel.chaff_cells_sent(), 0u);
}

}  // namespace
}  // namespace bolted::net
