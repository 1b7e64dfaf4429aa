// RPC layer tests: request/response correlation, timeouts under
// isolation, unknown services, concurrent calls, and wire-format
// robustness.

#include <gtest/gtest.h>

#include "src/crypto/wire.h"
#include "src/net/rpc.h"

namespace bolted::net {
namespace {

using crypto::Bytes;
using crypto::ToBytes;
using crypto::WireReader;
using crypto::WireWriter;
using sim::Duration;
using sim::Simulation;
using sim::Task;

struct RpcFixture : public ::testing::Test {
  Simulation sim;
  Network fabric{sim, Duration::Microseconds(10), 1.25e9};
  Endpoint& server_ep{fabric.CreateEndpoint("server")};
  Endpoint& client_ep{fabric.CreateEndpoint("client")};
  RpcNode server{sim, server_ep};
  RpcNode client{sim, client_ep};

  void SetUp() override {
    fabric.AttachToVlan(server_ep.address(), 1);
    fabric.AttachToVlan(client_ep.address(), 1);
    server.RegisterHandler("echo", [this](const Message& req, Message* resp) {
      return Echo(req, resp);
    });
    server.RegisterHandler("slow", [this](const Message& req, Message* resp) {
      return Slow(req, resp);
    });
    server.Start();
    client.Start();
  }

  Task Echo(const Message& request, Message* response) {
    response->payload = request.payload;
    co_return;
  }

  Task Slow(const Message& request, Message* response) {
    (void)request;
    co_await sim::Delay(sim, Duration::Seconds(60));
    response->payload = ToBytes("finally");
  }
};

TEST_F(RpcFixture, CallReturnsMatchingResponse) {
  Message response;
  bool ok = false;
  auto flow = [&]() -> Task {
    Message request;
    request.kind = "echo";
    request.payload = ToBytes("ping");
    co_await client.Call(server.address(), std::move(request), &response, &ok);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(response.payload, ToBytes("ping"));
  EXPECT_EQ(response.kind, "echo.resp");
}

TEST_F(RpcFixture, UnknownServiceTimesOut) {
  bool ok = true;
  double elapsed = 0;
  auto flow = [&]() -> Task {
    Message response;
    Message request;
    request.kind = "no-such";
    const double t0 = sim.now().ToSecondsF();
    co_await client.Call(server.address(), std::move(request), &response, &ok,
                         Duration::Seconds(5));
    elapsed = sim.now().ToSecondsF() - t0;
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_FALSE(ok);
  EXPECT_NEAR(elapsed, 5.0, 0.01);
}

TEST_F(RpcFixture, IsolationCausesTimeoutNotHang) {
  fabric.DetachFromAllVlans(server_ep.address());
  bool ok = true;
  auto flow = [&]() -> Task {
    Message response;
    Message request;
    request.kind = "echo";
    co_await client.Call(server.address(), std::move(request), &response, &ok,
                         Duration::Seconds(3));
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_FALSE(ok);
}

TEST_F(RpcFixture, SlowHandlerTimesOutButLateResponseIsIgnoredSafely) {
  bool ok = true;
  auto flow = [&]() -> Task {
    Message response;
    Message request;
    request.kind = "slow";
    co_await client.Call(server.address(), std::move(request), &response, &ok,
                         Duration::Seconds(5));
    EXPECT_FALSE(ok);
    // Keep living past the handler's eventual (late) response.
    co_await sim::Delay(sim, Duration::Seconds(120));
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_FALSE(ok);
}

TEST_F(RpcFixture, ConcurrentCallsCorrelateCorrectly) {
  constexpr int kCalls = 20;
  int correct = 0;
  auto one = [&](int i) -> Task {
    Message request;
    request.kind = "echo";
    request.payload = ToBytes("value-" + std::to_string(i));
    Message response;
    bool ok = false;
    co_await client.Call(server.address(), std::move(request), &response, &ok);
    if (ok && response.payload == ToBytes("value-" + std::to_string(i))) {
      ++correct;
    }
  };
  for (int i = 0; i < kCalls; ++i) {
    sim.Spawn(one(i));
  }
  sim.Run();
  EXPECT_EQ(correct, kCalls);
}

TEST_F(RpcFixture, HandlersRunConcurrentlyNotSerially) {
  // Two slow calls issued together should finish together, not back to
  // back: the dispatcher spawns handlers.
  double first = -1;
  double second = -1;
  auto one = [&](double* out) -> Task {
    Message response;
    Message request;
    request.kind = "slow";
    bool ok = false;
    co_await client.Call(server.address(), std::move(request), &response, &ok,
                         Duration::Seconds(300));
    *out = sim.now().ToSecondsF();
    EXPECT_TRUE(ok);
  };
  sim.Spawn(one(&first));
  sim.Spawn(one(&second));
  sim.Run();
  EXPECT_NEAR(first, second, 0.5);
  EXPECT_LT(first, 65.0);
}

TEST(WireTest, WriterReaderRoundTrip) {
  const crypto::Digest digest = crypto::Sha256::Hash("d");
  const Bytes wire = WireWriter()
                         .U32(7)
                         .U64(1ull << 40)
                         .Str("hello world")
                         .Blob(ToBytes("blob"))
                         .Digest(digest)
                         .Take();
  WireReader reader(wire);
  EXPECT_EQ(reader.U32(), 7u);
  EXPECT_EQ(reader.U64(), 1ull << 40);
  EXPECT_EQ(reader.Str(), "hello world");
  EXPECT_EQ(reader.Blob(), ToBytes("blob"));
  EXPECT_EQ(reader.Digest(), digest);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, ReaderFailsSafeOnShortInput) {
  const Bytes wire = WireWriter().U32(1).Str("abc").Take();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    WireReader reader(crypto::ByteView(wire.data(), cut));
    (void)reader.U32();
    (void)reader.Str();
    EXPECT_FALSE(reader.AtEnd()) << "cut=" << cut;
  }
}

TEST(WireTest, BlobLengthLiesAreCaught) {
  // A blob whose declared length exceeds the remaining bytes must flip
  // ok() rather than read out of bounds.
  Bytes wire;
  crypto::AppendU32(wire, 1000);  // claims 1000 bytes
  wire.push_back(0xab);           // provides 1
  WireReader reader(wire);
  EXPECT_TRUE(reader.Blob().empty());
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace bolted::net
