#include "src/sim/simulation.h"

#include <utility>

#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/sim/worker_pool.h"

namespace bolted::sim {

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  while (spawned_.next != &spawned_) {
    TaskLink& task = *spawned_.next;
    task.Unlink();
    task.frame.destroy();
  }
}

EventId Simulation::Schedule(Duration delay, EventFn&& fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulation::ScheduleAt(Time when, EventFn&& fn) {
  if (when < now_) {
    when = now_;
  }
  return scheduler_.Schedule(now_, when, next_seq_++, std::move(fn));
}

void Simulation::Cancel(EventId id) { scheduler_.Cancel(id); }

void Simulation::RecordTraceEvent(uint64_t tag) {
  trace_digest_ = MixDigest(
      MixDigest(trace_digest_, static_cast<uint64_t>(now_.nanoseconds())), tag);
}

void Simulation::ThrowTaskFailure() {
  if (failure_ != nullptr) {
    std::rethrow_exception(std::exchange(failure_, nullptr));
  }
}

bool Simulation::Step() {
  ThrowTaskFailure();
  return FireNext();
}

bool Simulation::FireNext() {
  Time when;
  uint64_t seq;
  EventFn fn;
  if (!scheduler_.PopNext(&when, &seq, &fn)) {
    return false;
  }
  now_ = when;
  ++events_processed_;
  // Fold the firing into the trace digest before user code runs, so a
  // callback that inspects the digest sees its own event included.  The
  // mix is over (when, seq) — insertion order, not queue-internal ids.
  trace_digest_ = MixDigest(
      MixDigest(trace_digest_, static_cast<uint64_t>(when.nanoseconds())), seq);
#if BOLTED_OBS
  // Dispatch accounting: event count plus the live queue depth at fire
  // time (net of the event popped just now).
  if (observer_ != nullptr) {
    observer_->OnSimStep(scheduler_.pending());
  }
#endif
  fn();
  if (failure_ != nullptr) {  // tested inline: this runs once per event
    ThrowTaskFailure();
  }
  return true;
}

void Simulation::Run() {
  ThrowTaskFailure();
  while (FireNext()) {
  }
}

void Simulation::RunUntil(Time horizon) {
  ThrowTaskFailure();
  for (;;) {
    Time next;
    if (!scheduler_.PeekNextTime(&next) || next > horizon) {
      break;
    }
    FireNext();
  }
  if (now_ < horizon) {
    now_ = horizon;
  }
}

bool Simulation::RunBefore(Time end, Time* next) {
  ThrowTaskFailure();
  while (scheduler_.PeekNextTime(next)) {
    if (*next >= end) {
      return true;
    }
    FireNext();
  }
  return false;
}

bool Simulation::PeekNextEventTime(Time* next) {
  return scheduler_.PeekNextTime(next);
}

void Simulation::Spawn(Task task) {
  const Task::Handle h = std::exchange(task.handle_, nullptr);
  TaskLink& link = h.promise().link;
  h.promise().sim = this;
  link = {spawned_.prev, &spawned_, h};
  spawned_.prev->next = &link;
  spawned_.prev = &link;
  h.resume();
}

void Simulation::SetWorkerThreads(uint32_t threads) {
  if (threads <= 1) {
    worker_pool_.reset();
    return;
  }
  if (worker_pool_ == nullptr || worker_pool_->threads() != threads) {
    worker_pool_.reset();  // join the old team before pinning a new one
    worker_pool_ = std::make_unique<WorkerPool>(threads);
  }
}

}  // namespace bolted::sim
