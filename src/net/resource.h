// Processor-sharing fluid resources.
//
// A SharedResource models a capacity-limited device — a NIC, a disk
// spindle aggregate, a CPU core doing crypto — whose capacity is shared
// max-min fairly among concurrent consumers.  Consumers are coroutines:
//
//   co_await resource.Consume(bytes);
//
// suspends for exactly as long as the fluid model says the transfer takes
// given all concurrent activity.  This is how every throughput number in
// the benchmark harness (Figures 3, 5, 7) emerges from contention rather
// than being hard-coded.

#ifndef SRC_NET_RESOURCE_H_
#define SRC_NET_RESOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/small_vec.h"
#include "src/sim/task.h"

namespace bolted::net {

// Completion callback of every consumption.  A completed job invokes
// OnConsumeComplete(token) synchronously from inside Sync(), after the
// resource's own bookkeeping is consistent.  The callback may start new
// consumptions (on this or any other resource) reentrantly.  The network's
// flight engine (DESIGN.md §15) counts down a frame's NIC/uplink demands
// through it without parking a coroutine per resource; Consume() sets an
// Event in its own frame.
class ConsumeSink {
 public:
  virtual void OnConsumeComplete(uint64_t token) = 0;

 protected:
  ~ConsumeSink() = default;
};

class SharedResource {
 public:
  // capacity is in units (typically bytes) per simulated second.
  SharedResource(sim::Simulation& sim, double capacity_per_second, std::string name);
  SharedResource(const SharedResource&) = delete;
  SharedResource& operator=(const SharedResource&) = delete;
  ~SharedResource();

  // Registers `amount` units and invokes sink->OnConsumeComplete(token)
  // once the fluid model has served them.  Zero/negative amounts complete
  // synchronously before returning; sub-epsilon amounts may also complete
  // synchronously (from the Sync() this call performs).
  void ConsumeAsync(double amount, ConsumeSink* sink, uint64_t token);

  // Coroutine form of ConsumeAsync: completes when the fluid model has
  // served `amount` units.  Zero/negative amounts complete immediately.
  sim::Task Consume(double amount);

  // Current number of active consumers (for tests and stats).
  size_t active_consumers() const { return jobs_.size(); }
  double capacity_per_second() const { return capacity_; }
  const std::string& name() const { return name_; }
  // Total units served since construction (partial service of in-flight
  // jobs included: each active job has received v_ - start_v units).
  double total_served() const {
    return completed_ + static_cast<double>(jobs_.size()) * v_ - start_v_sum_;
  }

 private:
  // Processor sharing in virtual time: v_ counts units served *per job*
  // since construction (dv/dt = capacity / active jobs), so a job arriving
  // at virtual time s with demand a finishes exactly when v_ reaches
  // s + a.  Advancing the model is O(1) and a completion is a heap pop —
  // the per-event cost no longer scales with the number of concurrent
  // flows, which is what keeps fleet-size fan-in (thousands of quote
  // responses converging on one verifier NIC) linear instead of
  // quadratic per poll round.
  struct Job {
    double finish_v = 0;  // start_v + demand
    double start_v = 0;
    uint64_t seq = 0;  // arrival order; tie-break for simultaneous finishes
    // Invoked directly, after the job has been popped and accounted.
    ConsumeSink* sink = nullptr;
    uint64_t token = 0;
  };
  struct JobLater {
    bool operator()(const Job& a, const Job& b) const {
      return a.finish_v != b.finish_v ? a.finish_v > b.finish_v : a.seq > b.seq;
    }
  };

  // Advances virtual time to now, completes drained jobs, and reschedules
  // the next completion event.
  void Sync();
  void AdvanceTo(sim::Time now);

  sim::Simulation& sim_;
  double capacity_;
  std::string name_;
  // Min-heap on (finish_v, seq).
  std::vector<Job> jobs_;
  sim::Time last_update_;
  // The armed completion event while jobs wait, 0 while idle.
  sim::EventId pending_event_ = 0;
  double v_ = 0;             // virtual units served per job so far
  uint64_t next_seq_ = 0;
  double completed_ = 0;     // total demand of finished jobs
  double start_v_sum_ = 0;   // sum of start_v over active jobs
};

// One resource's share of a pipelined transfer, e.g. wire bytes on the NIC
// vs payload bytes on the crypto engine.
struct WeightedDemand {
  SharedResource* resource;
  double amount;
};
// Inline-capacity demand list: the common frame shape (tx + rx, plus up to
// two rack uplinks) fits without touching the heap.  SmallVec's
// user-declared constructors also make it safe as a by-value coroutine
// parameter under GCC 12 (see the toolchain note in src/sim/task.h).
using DemandList = sim::SmallVec<WeightedDemand, 4>;
// Consumes every demand concurrently and completes when the slowest
// finishes — the standard approximation for a pipelined transfer
// bottlenecked by its most contended stage (NIC -> wire -> NIC, or NIC ->
// crypto engine).
sim::Task ConsumeAllWeighted(sim::Simulation& sim, DemandList demands);

}  // namespace bolted::net

#endif  // SRC_NET_RESOURCE_H_
