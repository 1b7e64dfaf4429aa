#include "src/sim/simulation.h"

#include <utility>

#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/sim/worker_pool.h"

namespace bolted::sim {

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() = default;

EventId Simulation::Schedule(Duration delay, EventFn fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulation::ScheduleAt(Time when, EventFn fn) {
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

bool Simulation::Step() {
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
  if ((events_processed_ & 0x3ff) == 0) {
    ReapTasksIncremental();
  }
  return true;
}

void Simulation::Run() {
  while (Step()) {
  }
  ReapTasks();
}

void Simulation::RunUntil(Time horizon) {
  for (;;) {
    Time next;
    if (!scheduler_.PeekNextTime(&next) || next > horizon) {
      break;
    }
    Step();
  }
  if (now_ < horizon) {
    now_ = horizon;
  }
  ReapTasks();
}

bool Simulation::RunBefore(Time end, Time* next) {
  while (scheduler_.PeekNextTime(next)) {
    if (*next >= end) {
      return true;
    }
    Step();
  }
  return false;
}

bool Simulation::PeekNextEventTime(Time* next) {
  return scheduler_.PeekNextTime(next);
}

void Simulation::Spawn(Task task) {
  live_tasks_.push_back(std::move(task));
  live_tasks_.back().Start();
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

void Simulation::ReapTasks() {
  for (size_t i = 0; i < live_tasks_.size();) {
    if (live_tasks_[i].done()) {
      live_tasks_[i].RethrowIfFailed();
      live_tasks_[i] = std::move(live_tasks_.back());
      live_tasks_.pop_back();
    } else {
      ++i;
    }
  }
  reap_cursor_ = 0;
}

void Simulation::ReapTasksIncremental() {
  // Bounded slice of the full sweep: with a fleet-size poll keeping
  // thousands of coroutines live, a full scan every 1024 events costs more
  // than the events themselves.  Each call examines at most kReapBudget
  // slots; the cursor wraps, so every slot is still visited within
  // live/kReapBudget reap ticks, and Run()'s final full ReapTasks() keeps
  // the completion (and exception-propagation) guarantee unchanged.
  constexpr size_t kReapBudget = 64;
  size_t budget = kReapBudget;
  while (budget-- > 0 && !live_tasks_.empty()) {
    if (reap_cursor_ >= live_tasks_.size()) {
      reap_cursor_ = 0;
      break;  // completed a lap; resume next tick
    }
    if (live_tasks_[reap_cursor_].done()) {
      live_tasks_[reap_cursor_].RethrowIfFailed();
      live_tasks_[reap_cursor_] = std::move(live_tasks_.back());
      live_tasks_.pop_back();
    } else {
      ++reap_cursor_;
    }
  }
}

}  // namespace bolted::sim
