#include "src/net/resource.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace bolted::net {

SharedResource::SharedResource(sim::Simulation& sim, double capacity_per_second,
                               std::string name)
    : sim_(sim), capacity_(capacity_per_second), name_(std::move(name)),
      last_update_(sim.now()) {
  assert(capacity_ > 0);
}

SharedResource::~SharedResource() { sim_.Cancel(pending_event_); }

void SharedResource::AdvanceTo(sim::Time now) {
  if (now > last_update_ && !jobs_.empty()) {
    const double elapsed = (now - last_update_).ToSecondsF();
    v_ += capacity_ * elapsed / static_cast<double>(jobs_.size());
  }
  last_update_ = now;
}

void SharedResource::Sync() {
  AdvanceTo(sim_.now());

  // Complete every drained job, earliest virtual finish first (ties in
  // arrival order).  The threshold is relative to capacity: anything under
  // a picosecond of work counts as done, which (together with the 1 ns
  // minimum reschedule below) guarantees forward progress despite
  // floating-point residue.  The job is copied out and fully accounted
  // *before* its sink runs: a sink may reentrantly push new jobs onto this
  // very resource — the heap and the served-units counters are consistent
  // at that point, and the re-check of front() on the next loop iteration
  // picks up anything a nested Sync() already drained.
  const double epsilon = capacity_ * 1e-12;
  while (!jobs_.empty() && jobs_.front().finish_v - v_ <= epsilon) {
    const Job job = jobs_.front();
    completed_ += job.finish_v - job.start_v;
    start_v_sum_ -= job.start_v;
    std::pop_heap(jobs_.begin(), jobs_.end(), JobLater{});
    jobs_.pop_back();
    job.sink->OnConsumeComplete(job.token);
  }

  sim_.Cancel(std::exchange(pending_event_, 0));
  if (jobs_.empty()) {
    return;
  }

  const double min_remaining = jobs_.front().finish_v - v_;
  const double rate = capacity_ / static_cast<double>(jobs_.size());
  const int64_t delay_ns = std::max<int64_t>(
      1, static_cast<int64_t>(min_remaining / rate * 1e9));
  pending_event_ =
      sim_.Schedule(sim::Duration::Nanoseconds(delay_ns), [this]() { Sync(); });
}

void SharedResource::ConsumeAsync(double amount, ConsumeSink* sink,
                                  uint64_t token) {
  if (amount <= 0) {
    sink->OnConsumeComplete(token);
    return;
  }
  // Settle existing jobs up to now before the new one starts competing.
  AdvanceTo(sim_.now());
  jobs_.push_back(Job{v_ + amount, v_, next_seq_++, sink, token});
  std::push_heap(jobs_.begin(), jobs_.end(), JobLater{});
  start_v_sum_ += v_;
  Sync();
}

namespace {

// Consume's completion: sets an Event in the consuming coroutine's frame.
// The frame stays suspended (so the sink stays alive) until the Event's
// resume, which goes through the event queue.  A named local with a
// user-declared constructor (see the GCC 12 note in src/sim/task.h).
class EventSink final : public ConsumeSink {
 public:
  explicit EventSink(sim::Event& done) : done_(done) {}
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;
  void OnConsumeComplete(uint64_t) override { done_.Set(); }

 private:
  sim::Event& done_;
};

}  // namespace

sim::Task SharedResource::Consume(double amount) {
  sim::Event done(sim_);
  EventSink sink(done);
  ConsumeAsync(amount, &sink, 0);
  co_await done;
}

sim::Task ConsumeAllWeighted(sim::Simulation& sim, DemandList demands) {
  sim::TaskGroup group(sim);
  for (const WeightedDemand& demand : demands) {
    if (demand.resource != nullptr && demand.amount > 0) {
      group.Spawn(demand.resource->Consume(demand.amount));
    }
  }
  co_await group.WaitAll();
}

}  // namespace bolted::net
