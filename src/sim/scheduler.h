// The simulation kernel's event queue: a hierarchical timing wheel.
//
// Contract (the determinism contract; tests/scheduler_test.cc holds the
// wheel to it, event for event, against a plain binary-heap oracle):
//   * Events fire in (when, seq) order: strictly increasing `when`, and
//     among events at the same instant, increasing `seq` — i.e. insertion
//     order.  `seq` is assigned by the Simulation and is globally unique.
//   * Cancel is a no-op on fired, cancelled, or never-issued ids, and a
//     cancelled event leaves no residue observable through pending().
//   * pending() is the exact number of live (scheduled, not yet fired or
//     cancelled) events at all times; the obs queue-depth histogram
//     samples it.
//   * Returned EventIds are never 0, so callers may use 0 as "no event".
//
// Layout (DESIGN.md §10): 11 levels of 64 slots.  Level k buckets time by
// 2^(6k) ns, so level 0 resolves single nanoseconds, and 11 × 6 = 66 bits
// cover every non-negative int64_t instant: the top level's parent window
// is all of simulated time, and every event, however far out, sits in
// the wheel.  Cancellation is O(1): handles carry a pool index plus a
// generation tag, and records are doubly linked within their slot, so
// Cancel unlinks immediately — no tombstone hash set, no compaction
// sweeps.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace bolted::sim {

// Identifies a scheduled event so it can be cancelled.
using EventId = uint64_t;

// See the header comment for the layout and DESIGN.md §10 for the
// determinism argument; the inline comments below state the invariants
// each path relies on.
class WheelScheduler {
 public:
  WheelScheduler();

  // Enqueues fn at `when` (the Simulation clamps when >= now).  `seq` must
  // be strictly increasing across calls; `now` is the simulation clock,
  // the lower bound on every future `when`.
  EventId Schedule(Time now, Time when, uint64_t seq, EventFn fn);
  void Cancel(EventId id);
  // Earliest live event time; false when nothing is pending.  May advance
  // internal bookkeeping but never changes the fire order.
  bool PeekNextTime(Time* when);
  // Pops the earliest live event; false when nothing is pending.
  bool PopNext(Time* when, uint64_t* seq, EventFn* fn);
  size_t pending() const { return live_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 11;  // 66 bits >= any non-negative int64_t
  static constexpr uint32_t kNil = 0xffffffffu;

  enum class State : uint8_t {
    kFree,   // on the freelist
    kWheel,  // linked into a wheel slot
    kDrain,  // in the current same-instant drain batch
    kDead,   // cancelled but still referenced by drain_
  };

  // One scheduled event.  Records live in a pool and are addressed by
  // 32-bit index; handles add a generation tag so stale cancels of a
  // recycled slot are recognised and ignored.
  struct Rec {
    int64_t when = 0;   // absolute ns
    uint64_t seq = 0;
    EventFn fn;
    uint32_t gen = 1;
    uint32_t prev = kNil;  // intrusive doubly-linked slot list
    uint32_t next = kNil;
    State state = State::kFree;
    uint8_t level = 0;
    uint8_t slot = 0;
  };

  static EventId MakeId(uint32_t gen, uint32_t index) {
    return (static_cast<uint64_t>(gen) << 32) | index;
  }

  uint32_t AllocRec(int64_t when, uint64_t seq, EventFn fn);
  void FreeRec(uint32_t index);
  // Places a record relative to wheel_time_: the lowest level whose
  // parent window holds both `when` and the cursor.
  void Place(uint32_t index);
  void PushSlot(int level, int slot, uint32_t index);
  void UnlinkFromSlot(uint32_t index);
  // Advances wheel_time_ (cascading higher-level slots downward) until the
  // earliest live events sit in a level-0 slot, then moves that slot — one
  // exact instant — into drain_, sorted by seq.  False when nothing is
  // pending.
  bool RefillDrain();

  std::vector<Rec> recs_;
  std::vector<uint32_t> free_recs_;
  uint32_t heads_[kLevels][kSlots];
  uint32_t tails_[kLevels][kSlots];
  uint64_t occupancy_[kLevels] = {};  // bit s set <=> slot s non-empty

  // The wheel cursor.  Invariant: 0 <= wheel_time_ <= every live event's
  // `when`.
  int64_t wheel_time_ = 0;
  // The instant currently being drained (-1 before the first drain).
  // Events scheduled *at* the drain instant during the drain join the
  // batch; their seq is necessarily larger than everything already in it,
  // so appending preserves seq order.
  int64_t drain_time_ = -1;
  std::vector<uint32_t> drain_;
  size_t drain_cursor_ = 0;
  size_t drain_live_ = 0;

  size_t live_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_SCHEDULER_H_
