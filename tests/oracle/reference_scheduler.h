// The pre-wheel event queue, kept as the equivalence oracle for the
// production timing wheel (src/sim/scheduler.h).  Test-only: no target
// under src/ links it.
//
// It honours the same determinism contract as sim::WheelScheduler —
// events fire in (when, seq) order, Cancel is a no-op on fired, cancelled
// or never-issued ids, pending() is exact at every step, ids are never 0 —
// through a much simpler structure: a binary min-heap of move-only entries
// ordered by (when, seq), an unordered_set of live ids giving lazy
// cancellation, and a compaction pass once tombstones dominate the heap.

#ifndef TESTS_ORACLE_REFERENCE_SCHEDULER_H_
#define TESTS_ORACLE_REFERENCE_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace bolted::oracle {

// The same five methods, with the same meaning, as sim::WheelScheduler.
class ReferenceScheduler {
 public:
  sim::EventId Schedule(sim::Time now, sim::Time when, uint64_t seq,
                        sim::EventFn fn);
  void Cancel(sim::EventId id);
  bool PeekNextTime(sim::Time* when);
  bool PopNext(sim::Time* when, uint64_t* seq, sim::EventFn* fn);
  size_t pending() const { return pending_.size(); }

 private:
  struct Entry {
    sim::Time when;
    uint64_t seq;  // tie-break: earlier scheduling fires first
    sim::EventId id;
    sim::EventFn fn;
    // Min-heap order via std::greater: later-firing sorts greater.
    bool operator>(const Entry& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  // Pops cancelled entries off the heap top; afterwards the top (if any)
  // is a live event.
  void DropCancelledTop();
  Entry PopTop();
  // Rebuilds the heap without dead (cancelled) entries once they dominate
  // it — retry timers that are armed and cancelled on every attempt must
  // not accumulate tombstones for the lifetime of a long chaos run.
  void MaybeCompactHeap();

  uint64_t next_id_ = 1;
  std::vector<Entry> heap_;
  std::unordered_set<sim::EventId> pending_;
  // Cancelled entries still sitting in heap_ (lazy deletion).  pending_
  // holds exactly the ids of live heap entries, so Cancel can maintain
  // this count precisely.
  size_t dead_in_heap_ = 0;
};

}  // namespace bolted::oracle

#endif  // TESTS_ORACLE_REFERENCE_SCHEDULER_H_
