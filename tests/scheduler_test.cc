// Equivalence and stress tests for the event queue.
//
// The production sim::WheelScheduler must be observationally identical to
// oracle::ReferenceScheduler, the pre-wheel binary heap kept in the
// test-only oracle library: same (when, seq) fire stream, same trace
// digest, same pending() count after every step.  Both queues run under
// one small test kernel (Kernel below) through identical operation
// sequences: fixed scripts for the edge cases (same-instant batches,
// far-future spill, cancel storms), a seeded randomized driver that
// schedules and cancels from inside running events the way live protocol
// code does, and a lockstep driver that interleaves peeks and pops the
// way windowed (sharded) execution does.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "tests/oracle/reference_scheduler.h"

namespace bolted::sim {
namespace {

using oracle::ReferenceScheduler;

constexpr int64_t kWheelHorizonNs = int64_t{1} << 48;  // one wheel epoch

// The slice of sim::Simulation a queue is observable through — a clock, a
// kernel-issued seq counter, a seeded Rng, and the (when, seq) trace
// digest — over any queue with the scheduler contract, so both queues run
// identical kernel code.
template <typename Queue>
class Kernel {
 public:
  explicit Kernel(uint64_t seed) : rng_(seed) {}

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  uint64_t trace_digest() const { return digest_; }
  uint64_t events_processed() const { return events_; }
  size_t pending_events() const { return queue_.pending(); }

  EventId Schedule(Duration delay, EventFn fn) {
    return queue_.Schedule(now_, now_ + delay, next_seq_++, std::move(fn));
  }
  void Cancel(EventId id) { queue_.Cancel(id); }
  bool PeekNextTime(Time* when) { return queue_.PeekNextTime(when); }
  // Pops the earliest event, advances the clock to it, folds (when, seq)
  // into the digest and fires it; false when nothing is pending.
  bool Step() {
    Time when;
    uint64_t seq = 0;
    EventFn fn;
    if (!queue_.PopNext(&when, &seq, &fn)) {
      return false;
    }
    now_ = when;
    ++events_;
    digest_ = Mix(Mix(digest_, static_cast<uint64_t>(when.nanoseconds())), seq);
    fn();
    return true;
  }
  void Run() {
    while (Step()) {
    }
  }

 private:
  static uint64_t Mix(uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9u;
    return h ^ (h >> 27);
  }

  Queue queue_;
  Time now_;
  uint64_t next_seq_ = 0;
  uint64_t events_ = 0;
  uint64_t digest_ = 0;
  Rng rng_;
};

using WheelKernel = Kernel<WheelScheduler>;
using ReferenceKernel = Kernel<ReferenceScheduler>;

struct Fired {
  int64_t when_ns;
  uint64_t tag;

  bool operator==(const Fired&) const = default;
};

// Everything observable about one run: the fired (when, tag) stream with
// the pending() count sampled at each fire, plus the kernel's digest and
// totals.
struct RunLog {
  std::vector<Fired> fired;
  std::vector<size_t> pending_at_fire;
  uint64_t trace_digest = 0;
  uint64_t events = 0;
  size_t pending_at_end = 0;
};

// Runs `script(kernel, log)` (which schedules everything) to completion
// on the given queue and captures the log.
template <typename Queue, typename Script>
RunLog Capture(uint64_t seed, Script script) {
  Kernel<Queue> sim(seed);
  RunLog log;
  script(sim, log);
  sim.Run();
  log.trace_digest = sim.trace_digest();
  log.events = sim.events_processed();
  log.pending_at_end = sim.pending_events();
  return log;
}

void ExpectSameLog(const RunLog& wheel, const RunLog& heap) {
  ASSERT_EQ(wheel.fired.size(), heap.fired.size());
  for (size_t i = 0; i < wheel.fired.size(); ++i) {
    ASSERT_EQ(wheel.fired[i], heap.fired[i]) << "divergence at fire #" << i;
    ASSERT_EQ(wheel.pending_at_fire[i], heap.pending_at_fire[i])
        << "pending() divergence at fire #" << i;
  }
  EXPECT_EQ(wheel.trace_digest, heap.trace_digest);
  EXPECT_EQ(wheel.events, heap.events);
  EXPECT_EQ(wheel.pending_at_end, heap.pending_at_end);
}

// Runs a generic script on both queues and compares the logs.
template <typename Script>
void ExpectEquivalent(uint64_t seed, Script script) {
  ExpectSameLog(Capture<WheelScheduler>(seed, script),
                Capture<ReferenceScheduler>(seed, script));
}

// Schedules a tagged probe: records (now, tag) and the live count when it
// fires.
template <typename Sim>
EventId Probe(Sim& sim, RunLog& log, Duration delay, uint64_t tag) {
  return sim.Schedule(delay, [&sim, &log, tag]() {
    log.fired.push_back(Fired{sim.now().nanoseconds(), tag});
    log.pending_at_fire.push_back(sim.pending_events());
  });
}

TEST(SchedulerEquivalence, SameInstantBatchesFireInInsertionOrder) {
  ExpectEquivalent(1, [](auto& sim, RunLog& log) {
    // Three co-scheduled instants, interleaved insertion.
    for (uint64_t round = 0; round < 3; ++round) {
      for (uint64_t i = 0; i < 32; ++i) {
        Probe(sim, log, Duration::Nanoseconds(static_cast<int64_t>(100 * round)),
              round * 100 + i);
      }
    }
    // Zero-delay events land in the batch currently draining.
    Probe(sim, log, Duration::Zero(), 999);
  });
}

TEST(SchedulerEquivalence, FarFutureEventsCascadeThroughEveryLevel) {
  ExpectEquivalent(2, [](auto& sim, RunLog& log) {
    // One event per wheel level boundary, plus several past the 2^48 ns
    // horizon (the spill heap), plus multi-epoch stragglers.
    for (int level = 0; level < 8; ++level) {
      const int64_t span = int64_t{1} << (6 * level);
      Probe(sim, log, Duration::Nanoseconds(span - 1), 1000 + static_cast<uint64_t>(level));
      Probe(sim, log, Duration::Nanoseconds(span), 2000 + static_cast<uint64_t>(level));
      Probe(sim, log, Duration::Nanoseconds(span + 1), 3000 + static_cast<uint64_t>(level));
    }
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs - 1), 4000);
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs), 4001);
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs + 1), 4002);
    Probe(sim, log, Duration::Nanoseconds(3 * kWheelHorizonNs + 12345), 4003);
    Probe(sim, log, Duration::Nanoseconds(7 * kWheelHorizonNs), 4004);
  });
}

// The RPC pattern the wheel exists for: arm a timeout, cancel it when the
// short operation completes, re-arm.
template <typename Sim>
struct Retrier {
  Sim* sim = nullptr;
  RunLog* log = nullptr;
  EventId timeout = 0;
  int remaining = 500;

  void Arm() {
    timeout = Probe(*sim, *log, Duration::Seconds(30), 7000);
    sim->Schedule(Duration::Microseconds(3), [this]() {
      sim->Cancel(timeout);
      if (--remaining > 0) {
        Arm();
      } else {
        Probe(*sim, *log, Duration::Seconds(30), 7001);  // last one fires
      }
    });
  }
};

TEST(SchedulerEquivalence, RetryTimerChurn) {
  // Timeouts virtually never fire; both queues must agree anyway
  // (including on the final timeout generation, which does fire).
  ExpectEquivalent(3, [](auto& sim, RunLog& log) {
    // Static so the object outlives each Capture's Run(); reset per run.
    static Retrier<std::remove_reference_t<decltype(sim)>> retrier;
    retrier = {&sim, &log};
    retrier.Arm();
  });
}

TEST(SchedulerEquivalence, CancelStormLeavesNoResidue) {
  ExpectEquivalent(4, [](auto& sim, RunLog& log) {
    std::vector<EventId> ids;
    for (uint64_t i = 0; i < 256; ++i) {
      ids.push_back(Probe(sim, log, Duration::Nanoseconds(static_cast<int64_t>(10 * i)),
                          i));
    }
    // Cancel every third event, then double-cancel and cancel id 0 (both
    // no-ops by contract).
    for (size_t i = 0; i < ids.size(); i += 3) {
      sim.Cancel(ids[i]);
      sim.Cancel(ids[i]);
    }
    sim.Cancel(0);
    log.fired.push_back(Fired{-1, sim.pending_events()});
    log.pending_at_fire.push_back(sim.pending_events());
  });
}

// The randomized driver: every fired event re-schedules and cancels using
// the kernel's own seeded Rng.  Because both runs replay the same fire
// stream (asserted), the Rng draws stay aligned — any divergence cascades
// and is caught at the first differing fire.
template <typename Sim>
class FuzzDriver {
 public:
  FuzzDriver(Sim& sim, RunLog& log, uint64_t operations)
      : sim_(sim), log_(log), remaining_(operations) {}

  void Start() {
    for (int i = 0; i < 16; ++i) {
      SpawnOne();
    }
  }

 private:
  Duration RandomDelay() {
    switch (sim_.rng().NextBelow(10)) {
      case 0:
        return Duration::Zero();  // joins the draining batch
      case 1:
      case 2:
      case 3:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(64)));  // level 0
      case 4:
      case 5:
      case 6:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(1u << 20)));  // mid levels
      case 7:
      case 8:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(uint64_t{1} << 40)));
      default:
        // Past the wheel horizon: spill heap, multiple epochs out.
        return Duration::Nanoseconds(
            kWheelHorizonNs +
            static_cast<int64_t>(sim_.rng().NextBelow(uint64_t{3} << 48)));
    }
  }

  void SpawnOne() {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    const uint64_t tag = next_tag_++;
    const EventId id = sim_.Schedule(RandomDelay(), [this, tag]() { Fire(tag); });
    tracked_.push_back(id);
  }

  void Fire(uint64_t tag) {
    log_.fired.push_back(Fired{sim_.now().nanoseconds(), tag});
    log_.pending_at_fire.push_back(sim_.pending_events());
    // Respawn, and sometimes cancel a random tracked id — which may be
    // live anywhere in the wheel or spill, already fired, or already
    // cancelled.  All must be handled identically.
    SpawnOne();
    if (sim_.rng().NextBelow(4) == 0 && !tracked_.empty()) {
      sim_.Cancel(tracked_[sim_.rng().NextBelow(tracked_.size())]);
      SpawnOne();  // keep the population from draining early
    }
  }

  Sim& sim_;
  RunLog& log_;
  uint64_t remaining_;
  uint64_t next_tag_ = 0;
  std::vector<EventId> tracked_;
};

TEST(SchedulerEquivalence, RandomizedOperationStreams) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Each driver must outlive its Capture's Run().
    std::optional<FuzzDriver<WheelKernel>> wheel_driver;
    std::optional<FuzzDriver<ReferenceKernel>> heap_driver;
    const RunLog wheel =
        Capture<WheelScheduler>(seed, [&](WheelKernel& sim, RunLog& log) {
          wheel_driver.emplace(sim, log, 20'000).Start();
        });
    const RunLog heap =
        Capture<ReferenceScheduler>(seed, [&](ReferenceKernel& sim, RunLog& log) {
          heap_driver.emplace(sim, log, 20'000).Start();
        });
    ExpectSameLog(wheel, heap);
    EXPECT_EQ(wheel.pending_at_end, 0u);
  }
}

// Delays for the lockstep driver: pile-ups on the draining instant and on
// nearby instants (so cancels can land inside a same-instant batch), every
// wheel level, and the spill beyond the wheel horizon.
Duration LockstepDelay(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
      return Duration::Zero();
    case 1:
      return Duration::Nanoseconds(static_cast<int64_t>(rng.NextBelow(4)));
    case 2:
      return Duration::Nanoseconds(static_cast<int64_t>(rng.NextBelow(64)));
    case 3:
      return Duration::Nanoseconds(
          static_cast<int64_t>(rng.NextBelow(1u << 20)));
    case 4:
      return Duration::Nanoseconds(
          static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 40)));
    default:
      return Duration::Nanoseconds(
          kWheelHorizonNs +
          static_cast<int64_t>(rng.NextBelow(uint64_t{3} << 48)));
  }
}

// Run() only ever pops, so the scripts above compare PeekNextTime across
// the queues only indirectly.  This driver interleaves Schedule, Cancel,
// PeekNextTime and PopNext at random on both kernels in lockstep, against
// a model of the live events: cancels aim at the current earliest event
// and at members of the same-instant batch being drained, and windows fire
// everything strictly before some event's time and stop there
// (Simulation::RunBefore, the rule the shard windows use).  After every
// operation both peeks, both pending() counts and every pop must match the
// model.
TEST(SchedulerEquivalence, PeekAndPopAgreeUnderInterleavedOperations) {
  uint64_t batch_cancels = 0;
  uint64_t windows = 0;
  for (uint64_t seed = 200; seed < 208; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    uint64_t wheel_fired = 0;
    uint64_t heap_fired = 0;
    WheelKernel wheel(seed);
    ReferenceKernel heap(seed);
    Rng rng(seed);
    // The model: every scheduled event's time by tag (tag == seq, since
    // both kernels number events in scheduling order), and the live ones
    // in fire order.
    std::vector<Time> when_of;
    std::vector<std::pair<EventId, EventId>> ids;
    std::set<std::pair<Time, uint64_t>> live;

    const auto schedule = [&](Duration delay) {
      const uint64_t tag = when_of.size();
      when_of.push_back(wheel.now() + delay);
      ids.emplace_back(
          wheel.Schedule(delay, [&wheel_fired, tag] { wheel_fired = tag; }),
          heap.Schedule(delay, [&heap_fired, tag] { heap_fired = tag; }));
      live.emplace(when_of.back(), tag);
    };
    const auto cancel = [&](uint64_t tag) {
      wheel.Cancel(ids[tag].first);
      heap.Cancel(ids[tag].second);
      live.erase({when_of[tag], tag});
    };
    const auto agree = [&]() -> ::testing::AssertionResult {
      Time w;
      Time h;
      const bool has_w = wheel.PeekNextTime(&w);
      const bool has_h = heap.PeekNextTime(&h);
      if (has_w != !live.empty() || has_h != !live.empty()) {
        return ::testing::AssertionFailure()
               << "peek found an event: wheel " << has_w << ", reference "
               << has_h << ", model " << !live.empty();
      }
      if (has_w && (w != live.begin()->first || h != live.begin()->first)) {
        return ::testing::AssertionFailure()
               << "next event at: wheel " << w.nanoseconds()
               << ", reference " << h.nanoseconds() << ", model "
               << live.begin()->first.nanoseconds();
      }
      if (wheel.pending_events() != live.size() ||
          heap.pending_events() != live.size()) {
        return ::testing::AssertionFailure()
               << "pending: wheel " << wheel.pending_events()
               << ", reference " << heap.pending_events() << ", model "
               << live.size();
      }
      return ::testing::AssertionSuccess();
    };
    const auto pop = [&]() -> ::testing::AssertionResult {
      const bool popped_w = wheel.Step();
      const bool popped_h = heap.Step();
      if (popped_w != !live.empty() || popped_h != !live.empty()) {
        return ::testing::AssertionFailure()
               << "pop found an event: wheel " << popped_w << ", reference "
               << popped_h << ", model " << !live.empty();
      }
      if (popped_w) {
        const auto [when, tag] = *live.begin();
        if (wheel_fired != tag || heap_fired != tag || wheel.now() != when ||
            heap.now() != when) {
          return ::testing::AssertionFailure()
                 << "fired tag " << wheel_fired << " (wheel), " << heap_fired
                 << " (reference), model " << tag;
        }
        live.erase(live.begin());
      }
      return agree();
    };

    for (int op = 0; op < 5000; ++op) {
      switch (rng.NextBelow(10)) {
        case 0:
        case 1:
        case 2:
          schedule(LockstepDelay(rng));
          break;
        case 3:  // any event: live, fired, or already cancelled
          if (!when_of.empty()) {
            cancel(rng.NextBelow(when_of.size()));
          }
          break;
        case 4:  // the current earliest event
          if (!live.empty()) {
            cancel(live.begin()->second);
          }
          break;
        case 5: {  // a member of the instant being drained
          const auto it = live.lower_bound({wheel.now(), 0});
          if (it != live.end() && it->first == wheel.now()) {
            cancel(it->second);
            ++batch_cancels;
          }
          break;
        }
        case 6:
        case 7:
          ASSERT_TRUE(pop()) << "op " << op;
          break;
        default: {  // a window ending exactly on a live event's time
          if (live.empty()) {
            break;
          }
          const uint64_t pick = rng.NextBelow(when_of.size());
          const Time end = live.contains({when_of[pick], pick})
                               ? when_of[pick]
                               : live.begin()->first;
          Time next;
          while (wheel.PeekNextTime(&next) && next < end) {
            ASSERT_TRUE(pop()) << "op " << op;
          }
          ASSERT_FALSE(live.empty()) << "op " << op;
          ASSERT_TRUE(live.begin()->first == end) << "op " << op;
          ++windows;
          break;
        }
      }
      ASSERT_TRUE(agree()) << "op " << op;
    }
    while (!live.empty()) {
      ASSERT_TRUE(pop());
    }
    ASSERT_TRUE(pop());  // both queues report empty
  }
  EXPECT_GT(batch_cancels, 0u);
  EXPECT_GT(windows, 0u);
}

TEST(SchedulerContract, EventIdsAreNeverZeroAndCancelIsIdempotent) {
  const auto check = [](auto& sim) {
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sim.Schedule(Duration::Nanoseconds(i), []() {}));
    }
    for (const EventId id : ids) {
      EXPECT_NE(id, 0u);
    }
    sim.Run();
    // Cancelling fired ids after the fact must be harmless.
    for (const EventId id : ids) {
      sim.Cancel(id);
    }
    EXPECT_EQ(sim.pending_events(), 0u);
  };
  WheelKernel wheel(9);
  check(wheel);
  ReferenceKernel heap(9);
  check(heap);
}

TEST(SchedulerContract, PendingTracksLiveEventsExactly) {
  const auto check = [](auto& sim) {
    EXPECT_EQ(sim.pending_events(), 0u);
    const EventId a = sim.Schedule(Duration::Seconds(1), []() {});
    const EventId b = sim.Schedule(Duration::Seconds(2), []() {});
    sim.Schedule(Duration::Nanoseconds(kWheelHorizonNs * 2), []() {});  // spill
    EXPECT_EQ(sim.pending_events(), 3u);
    sim.Cancel(a);
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Cancel(a);  // double cancel: no change
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Cancel(b);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.Run();
    EXPECT_EQ(sim.pending_events(), 0u);
  };
  WheelKernel wheel(10);
  check(wheel);
  ReferenceKernel heap(10);
  check(heap);
}

}  // namespace
}  // namespace bolted::sim
