// Counting-allocator proof of the allocation-free frame path.
//
// The data-plane claim (DESIGN.md §10): once the pools are warm, a
// steady-state Endpoint::Send — message boxing, the send coroutine's
// frame, the NIC demand list, resource jobs, the scheduler record, and
// delivery into the receiver's inbox — touches the global allocator
// exactly zero times.  The same holds for a frame the sharded runtime
// routes between racks: the route phase schedules it on the destination
// rack as an inline event.  This binary replaces ::operator new/delete
// with counting shims and asserts that a measured send burst, and a
// measured run of rack-to-rack traffic, perform no allocations at all,
// not "few".

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/net/network.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bolted::net {
namespace {

constexpr VlanId kVlan = 10;

TEST(SendPathAllocTest, SteadyStateSendsAreAllocationFree) {
  sim::Simulation sim(7);
  Network fabric(sim, sim::Duration::Microseconds(5), 1.25e9);
  Endpoint& a = fabric.CreateEndpoint("alloc-a");
  Endpoint& b = fabric.CreateEndpoint("alloc-b");
  fabric.AttachToVlan(a.address(), kVlan);
  fabric.AttachToVlan(b.address(), kVlan);

  // Perpetual consumer so delivered frames cycle through the inbox ring
  // instead of accumulating (the task is reclaimed with the simulation).
  uint64_t received = 0;
  auto consumer = [&]() -> sim::Task {
    for (;;) {
      Message m = co_await b.inbox().Recv();
      ++received;
    }
  };
  sim.Spawn(consumer());

  const auto send_burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Message m;
      m.kind = "alloc.frame";  // within SSO capacity — no string heap
      m.wire_bytes = 1500;
      sim.Spawn(a.Send(b.address(), std::move(m)));
    }
    sim.Run();
  };

  // Warm-up sizes every cache involved: coroutine-frame pool, message
  // pool, scheduler record pool, resource job vectors, inbox rings, the
  // live-task list.  The warm burst is larger than the measured one so
  // every high-water mark is already reached.
  send_burst(512);
  ASSERT_EQ(received, 512u);

  const uint64_t before = g_allocations;
  send_burst(256);
  const uint64_t during = g_allocations - before;

  EXPECT_EQ(received, 768u);
  EXPECT_EQ(during, 0u)
      << "steady-state send path performed " << during << " heap allocations";
}

}  // namespace
}  // namespace bolted::net

namespace bolted::sim {
namespace {

TEST(ShardRouteAllocTest, SteadyStateRoutedFramesAreAllocationFree) {
  ShardOptions options;
  options.racks = 4;
  options.shards = 2;
  options.workers = 1;
  ShardedFleet fleet(options);

  // Every delivered frame goes on to the next rack until its hop budget
  // (payload0) runs out, so each run routes racks * (hops + 1) frames and
  // crosses both shard pairs.
  uint64_t delivered = 0;
  fleet.set_frame_handler(
      [&fleet, &delivered](Rack& rack, const CrossShardFrame& frame) {
        ++delivered;
        if (frame.payload0 > 0) {
          rack.Send((rack.index() + 1) % fleet.num_racks(), fleet.lookahead(),
                    frame.kind, frame.bytes, frame.payload0 - 1);
        }
      });
  constexpr uint64_t kHops = 999;
  const auto bounce = [&] {
    for (uint32_t r = 0; r < fleet.num_racks(); ++r) {
      fleet.rack(r).Send((r + 1) % fleet.num_racks(), fleet.lookahead(),
                         /*kind=*/1, /*bytes=*/64, kHops);
    }
    fleet.Run();
  };

  // Warm-up sizes the mailboxes, the route buffers and every rack's
  // scheduler record pool for exactly the traffic measured next.
  bounce();
  ASSERT_EQ(delivered, 4 * (kHops + 1));

  const uint64_t before = g_allocations;
  bounce();
  const uint64_t during = g_allocations - before;

  EXPECT_EQ(delivered, 8 * (kHops + 1));
  EXPECT_EQ(during, 0u) << "routing " << 4 * (kHops + 1)
                        << " steady-state frames performed " << during
                        << " heap allocations";
}

}  // namespace
}  // namespace bolted::sim
