// Deterministic pcap capture (src/net/pcap.h): golden byte-exact output
// across reruns, forwarding paths, and shard counts — the
// capture is a pure function of the simulated traffic, never of host
// wall-clock or worker interleaving — plus the file-format spot checks
// (ns magic, synthesized Ethernet/802.1Q framing, snaplen truncation,
// modeled-bulk orig_len) and the Close/partial-write semantics.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/network.h"
#include "src/net/pcap.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "tests/oracle/generic_forward.h"

namespace bolted::net {
namespace {

using sim::Duration;
using sim::Simulation;
using sim::Time;

// How RunCapture posts a frame: the production burst engine or the
// generic-path oracle (tests/oracle/generic_forward.h).
using PostFn = void (*)(Endpoint& from, Address dst, Message message);

void BurstPost(Endpoint& from, Address dst, Message message) {
  from.Post(dst, std::move(message));
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

uint32_t Le32(const std::vector<uint8_t>& b, size_t at) {
  return static_cast<uint32_t>(b[at]) | static_cast<uint32_t>(b[at + 1]) << 8 |
         static_cast<uint32_t>(b[at + 2]) << 16 |
         static_cast<uint32_t>(b[at + 3]) << 24;
}

uint16_t Be16(const std::vector<uint8_t>& b, size_t at) {
  return static_cast<uint16_t>(static_cast<uint16_t>(b[at]) << 8 | b[at + 1]);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A fixed two-node exchange: three tagged frames client -> server (mixed
// payload / modeled-bulk / rpc header) and one reply, with the server
// port tapped so both directions land in the capture.
std::vector<uint8_t> RunCapture(PostFn post, const std::string& file) {
  Simulation sim(/*seed=*/99);
  Network net(sim, Duration::Microseconds(1), 1e9);
  Endpoint& client = net.CreateEndpoint("client");
  Endpoint& server = net.CreateEndpoint("server");
  net.AttachToVlan(client.address(), 3);
  net.AttachToVlan(server.address(), 3);

  PcapWriter writer;
  EXPECT_TRUE(writer.Open(file));
  net.AttachPcapTap(server.address(), &writer);

  {
    Message m;
    m.kind = "hello";
    m.payload = {0xde, 0xad, 0xbe, 0xef};
    post(client, server.address(), std::move(m));
  }
  {
    Message m;
    m.kind = "bulk";
    m.wire_bytes = 9000;  // modeled bytes, no payload: truncated capture
    post(client, server.address(), std::move(m));
  }
  {
    Message m;
    m.kind = "rpc.req";
    m.rpc_id = 0x1122334455667788u;
    m.payload = crypto::Bytes(32, 0x5a);
    post(client, server.address(), std::move(m));
  }
  sim.Schedule(Duration::Microseconds(40), [&]() {
    Message m;
    m.kind = "reply";
    m.payload = {0x01};
    post(server, client.address(), std::move(m));
  });
  sim.Run();

  EXPECT_EQ(writer.frames_written(), 4u);
  EXPECT_TRUE(writer.Close());
  return ReadAll(file);
}

TEST(Pcap, GoldenHeaderAndFrameLayout) {
  const std::vector<uint8_t> bytes =
      RunCapture(BurstPost, TempPath("golden.pcap"));
  ASSERT_GT(bytes.size(), 24u + 16u);

  // Global header: nanosecond magic, version 2.4, LINKTYPE_ETHERNET.
  EXPECT_EQ(Le32(bytes, 0), 0xa1b23c4du);
  EXPECT_EQ(Be16(bytes, 4), 0x0200u);  // major=2 LE -> bytes 02 00
  EXPECT_EQ(bytes[6], 4u);             // minor
  EXPECT_EQ(Le32(bytes, 20), 1u);      // linktype

  // First record: frame "hello", client(addr 1) -> server(addr 2).
  const size_t rec = 24;
  EXPECT_EQ(Le32(bytes, rec + 0), 0u);      // ts_sec: still in second zero
  EXPECT_GT(Le32(bytes, rec + 4), 0u);      // ts_nsec: latency + NIC time
  const uint32_t incl = Le32(bytes, rec + 8);
  const uint32_t orig = Le32(bytes, rec + 12);
  EXPECT_EQ(incl, orig);  // small frame, nothing truncated
  const size_t eth = rec + 16;
  ASSERT_GE(bytes.size(), eth + incl);
  // dst MAC 02:42:<addr BE32> for server (address 2), then src for client.
  const uint8_t dst_mac[6] = {0x02, 0x42, 0, 0, 0, 2};
  const uint8_t src_mac[6] = {0x02, 0x42, 0, 0, 0, 1};
  EXPECT_EQ(std::memcmp(&bytes[eth], dst_mac, 6), 0);
  EXPECT_EQ(std::memcmp(&bytes[eth + 6], src_mac, 6), 0);
  EXPECT_EQ(Be16(bytes, eth + 12), 0x8100u);  // 802.1Q tag
  EXPECT_EQ(Be16(bytes, eth + 14), 3u);       // TCI = VLAN 3
  EXPECT_EQ(Be16(bytes, eth + 16), 0x88B5u);  // experimental ethertype
  // Body: u8 kind_len, kind bytes.
  EXPECT_EQ(bytes[eth + 18], 5u);
  EXPECT_EQ(std::memcmp(&bytes[eth + 19], "hello", 5), 0);

  // Walk every record: sim-time stamps are monotone, and the modeled
  // 9000-byte bulk frame appears with orig_len telling the wire truth
  // while only the tiny encoded header was captured (truncated capture).
  size_t records = 0;
  bool saw_bulk = false;
  uint64_t last_ts = 0;
  for (size_t off = 24; off + 16 <= bytes.size();) {
    const uint64_t ts = uint64_t{Le32(bytes, off)} * 1000000000u +
                        Le32(bytes, off + 4);
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    const uint32_t incl_len = Le32(bytes, off + 8);
    const uint32_t orig_len = Le32(bytes, off + 12);
    if (orig_len == 9000u) {
      saw_bulk = true;
      EXPECT_LT(incl_len, 100u);  // only the synthesized header captured
    }
    off += 16 + incl_len;
    ++records;
  }
  EXPECT_EQ(records, 4u);
  EXPECT_TRUE(saw_bulk);
}

TEST(Pcap, ByteExactAcrossRerunsSchedulersAndPaths) {
  const std::vector<uint8_t> golden =
      RunCapture(BurstPost, TempPath("cap_a.pcap"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(RunCapture(BurstPost, TempPath("cap_b.pcap")), golden)
      << "rerun not byte-exact";
  EXPECT_EQ(RunCapture(oracle::Post, TempPath("cap_c.pcap")), golden)
      << "generic path diverged";
}

// The fleet_sharding capture mode in miniature: rack 0 hosts a Network
// whose uplink port is tapped; cross-rack frames are injected on arrival.
// The capture must be byte-exact for every shard/worker count because the
// injected stream (contents and sim-time stamps) is — that is exactly the
// conservative-sync determinism guarantee.
std::vector<uint8_t> RunShardedCapture(uint32_t shards, uint32_t workers,
                                       const std::string& file) {
  constexpr uint32_t kRacks = 4;
  constexpr VlanId kVlan = 7;
  sim::ShardOptions options;
  options.racks = kRacks;
  options.shards = shards;
  options.workers = workers;
  options.seed = 77;
  options.lookahead = Duration::Microseconds(50);
  sim::ShardedFleet fleet(options);

  std::unique_ptr<Network> rack0_net = std::make_unique<Network>(
      fleet.rack(0).sim(), Duration::Microseconds(10), 1e9);
  Endpoint& port = rack0_net->CreateEndpoint("uplink-0");
  rack0_net->AttachToVlan(port.address(), kVlan);
  const Address tap_port = port.address();

  PcapWriter writer;
  EXPECT_TRUE(writer.Open(file));
  rack0_net->AttachPcapTap(tap_port, &writer);

  fleet.set_frame_handler([&fleet, &rack0_net, tap_port](
                              sim::Rack& rack,
                              const sim::CrossShardFrame& frame) {
    if (rack.index() == 0) {
      Message message;
      message.dst = tap_port;
      message.src = 9000 + frame.src_rack;
      message.kind = "shard.ingress";
      message.wire_bytes = frame.bytes;
      message.rpc_id = frame.payload0;
      rack0_net->InjectFrame(std::move(message), kVlan);
    }
    if (frame.payload0 > 0) {
      rack.Send((rack.index() + 1) % fleet.num_racks(), fleet.lookahead(),
                frame.kind, frame.bytes + 7, frame.payload0 - 1);
    }
  });
  for (uint32_t r = 0; r < kRacks; ++r) {
    sim::Rack& rack = fleet.rack(r);
    rack.sim().Schedule(Duration::Microseconds(1 + r), [&fleet, &rack] {
      rack.Send((rack.index() + 1) % fleet.num_racks(), fleet.lookahead(),
                /*kind=*/33, /*bytes=*/200, /*hops=*/8);
    });
  }
  fleet.Run();

  EXPECT_GT(writer.frames_written(), 0u);
  EXPECT_TRUE(writer.Close());
  return ReadAll(file);
}

TEST(Pcap, ByteExactAcrossShardAndWorkerCounts) {
  const std::vector<uint8_t> golden =
      RunShardedCapture(1, 1, TempPath("shard11.pcap"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(RunShardedCapture(2, 2, TempPath("shard22.pcap")), golden);
  EXPECT_EQ(RunShardedCapture(4, 2, TempPath("shard42.pcap")), golden);
  EXPECT_EQ(RunShardedCapture(4, 4, TempPath("shard44.pcap")), golden);
}

TEST(Pcap, SnaplenTruncatesButReportsOriginalLength) {
  const std::string file = TempPath("snap.pcap");
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(file, /*snaplen=*/64));
  EXPECT_EQ(writer.snaplen(), 64u);

  Message m;
  m.dst = 2;
  m.src = 1;
  m.kind = "big";
  m.payload = crypto::Bytes(500, 0xab);
  ASSERT_TRUE(writer.WriteFrame(Time::FromNanoseconds(1500), 9, m));
  ASSERT_TRUE(writer.Close());

  const std::vector<uint8_t> bytes = ReadAll(file);
  ASSERT_EQ(bytes.size(), 24u + 16u + 64u);  // exactly snaplen captured
  EXPECT_EQ(Le32(bytes, 24 + 0), 0u);
  EXPECT_EQ(Le32(bytes, 24 + 4), 1500u);
  EXPECT_EQ(Le32(bytes, 24 + 8), 64u);   // incl_len == snaplen
  EXPECT_GT(Le32(bytes, 24 + 12), 500u);  // orig_len: full encoded frame
}

TEST(Pcap, CloseIsIdempotentAndWriteAfterCloseFails) {
  const std::string file = TempPath("close.pcap");
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(file));

  Message m;
  m.dst = 2;
  m.src = 1;
  m.kind = "x";
  EXPECT_TRUE(writer.WriteFrame(Time::FromNanoseconds(10), 1, m));
  const uint64_t bytes_written = writer.bytes_written();

  EXPECT_TRUE(writer.Close());
  EXPECT_FALSE(writer.is_open());
  EXPECT_FALSE(writer.Close());  // second close: nothing to do
  EXPECT_FALSE(writer.WriteFrame(Time::FromNanoseconds(20), 1, m));

  // A clean close leaves exactly the bytes the writer accounted for.
  EXPECT_EQ(ReadAll(file).size(), bytes_written);
  EXPECT_EQ(writer.frames_written(), 1u);
}

TEST(Pcap, OpenFailureOnBadPathReportsFalse) {
  PcapWriter writer;
  EXPECT_FALSE(writer.Open(TempPath("no/such/dir/x.pcap")));
  EXPECT_FALSE(writer.is_open());
}

#if defined(__linux__)
// /dev/full accepts buffered writes but fails them at flush time, which
// is exactly the partial-write shape Close must report.
TEST(Pcap, PartialWriteSurfacesOnClose) {
  if (std::FILE* probe = std::fopen("/dev/full", "we")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "/dev/full unavailable";
  }
  PcapWriter writer;
  ASSERT_TRUE(writer.Open("/dev/full"));
  Message m;
  m.dst = 2;
  m.src = 1;
  m.kind = "doomed";
  writer.WriteFrame(Time::FromNanoseconds(5), 1, m);
  EXPECT_FALSE(writer.Close());
}
#endif  // __linux__

}  // namespace
}  // namespace bolted::net
