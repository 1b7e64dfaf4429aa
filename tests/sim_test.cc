// Unit tests for the discrete-event simulation kernel and the coroutine
// primitives built on it.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace bolted::sim {
namespace {

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::Seconds(2);
  const Duration b = Duration::Milliseconds(500);
  EXPECT_EQ((a + b).nanoseconds(), 2'500'000'000);
  EXPECT_EQ((a - b).nanoseconds(), 1'500'000'000);
  EXPECT_EQ((a * 3).nanoseconds(), 6'000'000'000);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_DOUBLE_EQ(b.ToSecondsF(), 0.5);
  EXPECT_LT(b, a);
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanoseconds(5).ToString(), "5ns");
  EXPECT_EQ(Duration::Microseconds(12).ToString(), "12us");
  EXPECT_EQ(Duration::Milliseconds(3).ToString(), "3ms");
  EXPECT_EQ(Duration::Seconds(7).ToString(), "7s");
  EXPECT_EQ(Duration::Minutes(2).ToString(), "2min");
}

TEST(TimeTest, TimeAndDurationCompose) {
  const Time t0 = Time::FromNanoseconds(100);
  const Time t1 = t0 + Duration::Nanoseconds(50);
  EXPECT_EQ((t1 - t0).nanoseconds(), 50);
  EXPECT_EQ((t1 - Duration::Nanoseconds(150)).nanoseconds(), 0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / kSamples, 5.0, 0.2);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(3);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Duration::Seconds(3), [&]() { order.push_back(3); });
  sim.Schedule(Duration::Seconds(1), [&]() { order.push_back(1); });
  sim.Schedule(Duration::Seconds(2), [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::FromNanoseconds(3'000'000'000));
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Seconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.Schedule(Duration::Seconds(1), [&]() { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelLeavesNoResidue) {
  // Regression: cancelling an event that already fired (or cancelling the
  // same id twice) used to insert the id into a tombstone set that nothing
  // ever drained, growing memory for the lifetime of the simulation.
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Duration::Seconds(1), []() {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  // Cancel after fire: all of these are stale.
  for (const EventId id : ids) {
    sim.Cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  // Double cancel of a pending event.
  const EventId pending = sim.Schedule(Duration::Seconds(1), []() {});
  sim.Cancel(pending);
  sim.Cancel(pending);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, CancelFromSameTickCallbackPreventsFiring) {
  // Re-entrancy regression: cancelling an event from inside another
  // event's callback in the same tick must not fire it, regardless of
  // which of the two was scheduled first.
  Simulation sim;
  bool victim_fired = false;
  EventId victim = 0;
  sim.Schedule(Duration::Seconds(1), [&]() { sim.Cancel(victim); });
  victim = sim.Schedule(Duration::Seconds(1), [&]() { victim_fired = true; });
  sim.Run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.pending_events(), 0u);

  // Scheduled-before-canceller order: the victim fires first (insertion
  // order), so the cancel is stale — and must stay a harmless no-op.
  Simulation sim2;
  bool first_fired = false;
  const EventId first = sim2.Schedule(Duration::Seconds(1), [&]() { first_fired = true; });
  sim2.Schedule(Duration::Seconds(1), [&]() { sim2.Cancel(first); });
  sim2.Run();
  EXPECT_TRUE(first_fired);
  EXPECT_EQ(sim2.pending_events(), 0u);
}

TEST(SimulationTest, CancelAndRescheduleInsideCallback) {
  // A callback that cancels a same-tick event and schedules a replacement
  // at the same instant: the replacement fires, the victim does not, and
  // time does not advance between them.
  Simulation sim;
  std::vector<std::string> log;
  EventId victim = 0;
  sim.Schedule(Duration::Seconds(2), [&]() {
    log.push_back("canceller");
    sim.Cancel(victim);
    sim.Schedule(Duration::Zero(), [&]() { log.push_back("replacement"); });
  });
  victim = sim.Schedule(Duration::Seconds(2), [&]() { log.push_back("victim"); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"canceller", "replacement"}));
  EXPECT_DOUBLE_EQ(sim.now().ToSecondsF(), 2.0);
}

TEST(SimulationTest, HeapCompactionPreservesLiveEventsAndOrder) {
  // Arm-and-cancel churn (the RPC retry-timer pattern) must not grow the
  // heap without bound, and compaction must not disturb firing order of
  // the surviving events.
  Simulation sim;
  std::vector<int> order;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> timers;
    for (int i = 0; i < 40; ++i) {
      timers.push_back(
          sim.Schedule(Duration::Minutes(60 + i), []() { ADD_FAILURE(); }));
    }
    for (const EventId id : timers) {
      sim.Cancel(id);
    }
  }
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Seconds(10 - i), [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.RunUntil(Time::FromNanoseconds(30'000'000'000));
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], 9 - i);
  }
}

TEST(SimulationTest, TraceDigestIsReplayStableAndOrderSensitive) {
  auto run = [](bool extra_event, bool domain_tag) {
    Simulation sim;
    for (int i = 0; i < 20; ++i) {
      sim.Schedule(Duration::Milliseconds(10 * i), [&sim, domain_tag]() {
        if (domain_tag) {
          sim.RecordTraceEvent(0xfeedu);
        }
      });
    }
    if (extra_event) {
      sim.Schedule(Duration::Milliseconds(5), []() {});
    }
    sim.Run();
    return sim.trace_digest();
  };
  // Identical schedules digest identically (the replay invariant)...
  EXPECT_EQ(run(false, false), run(false, false));
  // ...one extra event, or a domain event folded in, changes the digest.
  EXPECT_NE(run(false, false), run(true, false));
  EXPECT_NE(run(false, false), run(false, true));
}

TEST(SimulationTest, EventsStillFireAfterStaleCancels) {
  Simulation sim;
  const EventId early = sim.Schedule(Duration::Seconds(1), []() {});
  sim.Run();
  sim.Cancel(early);  // stale: already fired
  bool fired = false;
  sim.Schedule(Duration::Seconds(1), [&]() { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, RunUntilSkipsCancelledEventsAtHorizon) {
  // A cancelled event sitting at the top of the queue must not make
  // RunUntil fire a later event beyond the horizon.
  Simulation sim;
  const EventId id = sim.Schedule(Duration::Seconds(1), []() {});
  bool late_fired = false;
  sim.Schedule(Duration::Seconds(10), [&]() { late_fired = true; });
  sim.Cancel(id);
  sim.RunUntil(Time::FromNanoseconds(5'000'000'000));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now().ToSecondsF(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, MoveOnlyCallablesWork) {
  // EventFn is move-only, so a callable owning a unique_ptr schedules like
  // any other and is called exactly once.
  Simulation sim;
  auto payload = std::make_unique<std::array<uint8_t, 256>>();
  (*payload)[0] = 42;
  int calls = 0;
  uint8_t seen = 0;
  sim.Schedule(Duration::Seconds(1),
               [&calls, &seen, payload = std::move(payload)]() {
                 ++calls;
                 seen = (*payload)[0];
               });
  sim.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 42);
}

TEST(SimulationTest, NestedSchedulingAdvancesClock) {
  Simulation sim;
  Time inner_fire_time;
  sim.Schedule(Duration::Seconds(1), [&]() {
    sim.Schedule(Duration::Seconds(2), [&]() { inner_fire_time = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire_time.ToSecondsF(), 3.0);
}

TEST(SimulationTest, RunUntilStopsAtHorizon) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(Duration::Seconds(i), [&]() { ++count; });
  }
  sim.RunUntil(Time::FromNanoseconds(5'000'000'000));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().ToSecondsF(), 5.0);
}

TEST(SimulationTest, ZeroDelayRunsAtCurrentTime) {
  Simulation sim;
  bool fired = false;
  sim.Schedule(Duration::Zero(), [&]() {
    EXPECT_EQ(sim.now().nanoseconds(), 0);
    fired = true;
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

Task SleepAndRecord(Simulation& sim, Duration d, std::vector<double>& log) {
  co_await Delay(sim, d);
  log.push_back(sim.now().ToSecondsF());
}

TEST(TaskTest, DelayedCoroutineResumesAtRightTime) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(SleepAndRecord(sim, Duration::Seconds(5), log));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 5.0);
}

Task SleepAndRecordNamed(Simulation& sim, std::vector<std::string>& log) {
  log.push_back("child-start");
  co_await Delay(sim, Duration::Seconds(1));
  log.push_back("child-end");
}

Task Parent(Simulation& sim, std::vector<std::string>& log) {
  log.push_back("parent-start");
  co_await SleepAndRecordNamed(sim, log);
  log.push_back("parent-end");
}

TEST(TaskTest, ChildTaskRunsToCompletionBeforeParentResumes) {
  Simulation sim;
  std::vector<std::string> log;
  sim.Spawn(Parent(sim, log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
}

TEST(TaskTest, EventWakesAllWaiters) {
  Simulation sim;
  Event event(sim);
  int woken = 0;
  auto waiter = [&]() -> Task {
    co_await event;
    ++woken;
  };
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.Schedule(Duration::Seconds(1), [&]() { event.Set(); });
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(TaskTest, EventSetBeforeWaitDoesNotBlock) {
  Simulation sim;
  Event event(sim);
  event.Set();
  bool completed = false;
  auto waiter = [&]() -> Task {
    co_await event;
    completed = true;
  };
  sim.Spawn(waiter());
  sim.Run();
  EXPECT_TRUE(completed);
}

TEST(TaskTest, ChannelDeliversInFifoOrder) {
  Simulation sim;
  Channel<int> channel(sim);
  std::vector<int> received;
  auto consumer = [&]() -> Task {
    for (int i = 0; i < 3; ++i) {
      received.push_back(co_await channel.Recv());
    }
  };
  sim.Spawn(consumer());
  sim.Schedule(Duration::Seconds(1), [&]() {
    channel.Send(10);
    channel.Send(20);
    channel.Send(30);
  });
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
}

TEST(TaskTest, ChannelBuffersWhenNoWaiter) {
  Simulation sim;
  Channel<int> channel(sim);
  channel.Send(1);
  channel.Send(2);
  EXPECT_EQ(channel.size(), 2u);
  std::vector<int> received;
  auto consumer = [&]() -> Task {
    received.push_back(co_await channel.Recv());
    received.push_back(co_await channel.Recv());
  };
  sim.Spawn(consumer());
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
}

TEST(TaskTest, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int max_active = 0;
  auto worker = [&]() -> Task {
    co_await sem.Acquire();
    SemaphoreGuard guard(sem);
    ++active;
    max_active = std::max(max_active, active);
    co_await Delay(sim, Duration::Seconds(1));
    --active;
  };
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(worker());
  }
  sim.Run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(active, 0);
  // 6 workers, 2 at a time, 1s each -> 3s total.
  EXPECT_DOUBLE_EQ(sim.now().ToSecondsF(), 3.0);
}

TEST(TaskTest, TaskGroupWaitsForAll) {
  Simulation sim;
  auto run = [&]() -> Task {
    TaskGroup group(sim);
    int done = 0;
    auto worker = [&](int seconds) -> Task {
      co_await Delay(sim, Duration::Seconds(seconds));
      ++done;
    };
    group.Spawn(worker(1));
    group.Spawn(worker(5));
    group.Spawn(worker(3));
    co_await group.WaitAll();
    EXPECT_EQ(done, 3);
    EXPECT_DOUBLE_EQ(sim.now().ToSecondsF(), 5.0);
  };
  sim.Spawn(run());
  sim.Run();
  EXPECT_DOUBLE_EQ(sim.now().ToSecondsF(), 5.0);
}

TEST(TaskTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<int64_t> log;
    auto worker = [&](int id) -> Task {
      for (int i = 0; i < 5; ++i) {
        co_await Delay(sim, Duration::Milliseconds(
                                static_cast<int64_t>(sim.rng().NextBelow(100))));
        log.push_back(id * 1000 + sim.now().nanoseconds() % 997);
      }
    };
    for (int id = 0; id < 4; ++id) {
      sim.Spawn(worker(id));
    }
    sim.Run();
    return log;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

}  // namespace
}  // namespace bolted::sim
