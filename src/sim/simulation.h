// Discrete-event simulation kernel.
//
// The simulator owns a virtual clock and a queue of pending events.
// Events scheduled for the same instant fire in insertion order, which
// (together with the seeded Rng) makes every run deterministic.
//
// The queue is the hierarchical timing wheel of src/sim/scheduler.h,
// which tests/scheduler_test.cc holds event for event to the (when, seq)
// order of a plain binary heap.
//
// Higher-level flows (boot sequences, attestation protocols) are written
// as C++20 coroutines (see src/sim/task.h) that suspend on Delay()
// awaitables backed by this queue.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace bolted::obs {
class Registry;
}  // namespace bolted::obs

namespace bolted::sim {

class Task;
class WorkerPool;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 0x626f6c746564u);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules fn to run after delay (>= 0) of simulated time.  EventFn
  // converts from any void() callable that fits its inline storage.
  EventId Schedule(Duration delay, EventFn fn);
  EventId ScheduleAt(Time when, EventFn fn);
  // Cancels a pending event; a no-op if it already fired or was cancelled
  // (repeated or stale cancels leave no residue behind).
  void Cancel(EventId id);

  // Runs until the event queue drains or the given horizon passes.
  void Run();
  void RunUntil(Time horizon);
  // Fires every event with `when` strictly before `end` — the conservative
  // window boundary in sharded runs (src/sim/shard.h).  Returns false when
  // the queue is then empty; otherwise sets *next to the earliest pending
  // event time (>= end), read from the peek that ended the loop, so the
  // caller needs no second PeekNextEventTime.  Unlike RunUntil, the clock
  // stays at the last fired event: the window end is an execution bound,
  // not an observed instant.
  bool RunBefore(Time end, Time* next);
  // Fires the next event, if any; returns false when the queue is empty.
  bool Step();

  // Earliest pending event time; false when the queue is empty.  May
  // advance scheduler bookkeeping but never changes the fire order.
  bool PeekNextEventTime(Time* next);

  uint64_t events_processed() const { return events_processed_; }
  // Live (scheduled, not yet fired or cancelled) events; bounds all
  // internal bookkeeping, so long-running simulations cannot leak ids.
  size_t pending_events() const { return scheduler_.pending(); }

  // --- Event-trace digest -------------------------------------------------
  // Rolling 64-bit digest over the ordered (time, event) stream: every
  // fired event mixes in (when, seq), and components may fold in domain
  // events via RecordTraceEvent.  Two runs of the same seeded scenario
  // must produce the same digest — the replay invariant the chaos harness
  // checks byte-for-byte rather than end-state-equal.  The digest is a
  // function of the fire order alone (seq, not any queue-internal id).
  uint64_t trace_digest() const { return trace_digest_; }
  // Folds (now, tag) into the digest.  Tags identify domain events (frame
  // delivered, fault injected, verdict reached); pick any stable constant.
  void RecordTraceEvent(uint64_t tag);

  // --- Observability ------------------------------------------------------
  // Optional per-simulation obs::Registry (src/obs/obs.h).  The simulation
  // only stores the pointer — the obs layer defines all behaviour — so
  // bolted_sim takes no dependency on it.  Attached/detached by the
  // Registry's constructor/destructor.
  obs::Registry* observer() const { return observer_; }
  void set_observer(obs::Registry* observer) { observer_ = observer; }

  // Takes ownership of a coroutine task and starts it.  The task is
  // destroyed once it completes.
  void Spawn(Task task);

  // --- Host worker pool ---------------------------------------------------
  // At most one pool per simulation, for pure host-side tasks that never
  // schedule an event: quote signatures and batch signature checks
  // (src/sim/worker_pool.h).  Null until SetWorkerThreads(n > 1).
  WorkerPool* worker_pool() const { return worker_pool_.get(); }
  // Builds a pool of `threads` pinned threads, the caller being thread 0,
  // or drops the pool for threads <= 1.  A no-op when the size is
  // unchanged, so steady callers pay no thread spawn or join.
  void SetWorkerThreads(uint32_t threads);

 private:
  void ReapTasks();
  void ReapTasksIncremental();

  // Declared first so it is destroyed last: the coroutine frames destroyed
  // below may still hold tickets of tasks it runs.
  std::unique_ptr<WorkerPool> worker_pool_;
  Time now_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  // Declared before live_tasks_ so queued EventFns (which may reference
  // coroutine frames) are destroyed after the frames that own them.
  WheelScheduler scheduler_;
  uint64_t trace_digest_ = 0x626f6c746564u;
  obs::Registry* observer_ = nullptr;
  std::vector<Task> live_tasks_;
  // Wrap-around cursor for ReapTasksIncremental, so the periodic in-run
  // reap scans a bounded slice of live_tasks_ instead of the whole vector
  // (a fleet-size poll keeps thousands of coroutines live at once).
  size_t reap_cursor_ = 0;
  Rng rng_;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_SIMULATION_H_
