// Persistent team of host worker threads (DESIGN.md §11, §12).
//
// One way to hand it work: Submit(fn) queues a task onto a FIFO queue that
// the workers drain, and Wait(ticket) returns once the task has run,
// running it on the calling thread if no worker has started it yet.  The
// attestation stages use it for signatures and batch checks, the sharded
// runtime for the window phases of its busy shards.
//
// A task must be pure host work: it owns copies of its inputs and its
// result slot, and it never touches a Simulation, so it can neither
// schedule an event nor dangle when the coroutine that submitted it is
// destroyed mid-flight.  (The sharded runtime's phase tasks are the one
// exception: they run rack Simulations, and the runtime joins them all
// before it returns.)  A ticket outlives the pool that issued it: a task
// still queued when the pool is destroyed runs on the thread that Waits
// for it, or never runs if nobody does.

#ifndef SRC_SIM_WORKER_POOL_H_
#define SRC_SIM_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bolted::sim {

// Thread 0 is the calling thread, so WorkerPool(1) spawns nothing and runs
// every task inside Wait.  Reused across calls, so worker threads keep
// their core pinning and warm caches.
class WorkerPool {
 public:
  class Job;
  // Shared between the submitter and the pool.  The job's result passes
  // to the waiter by a release store and an acquire load on its state.
  using Ticket = std::shared_ptr<Job>;

  // Spawns threads-1 workers.  With more than one thread, thread t (the
  // caller being thread 0) is pinned to core t % hardware_concurrency —
  // best effort, skipped on single-core hosts and non-Linux platforms.
  explicit WorkerPool(uint32_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  uint32_t threads() const { return threads_; }

  // Queues fn for the workers.  With one thread nothing is queued and the
  // task runs inside Wait.
  Ticket Submit(std::function<void()> fn);
  // Returns once the ticket's task has run, running it here if no worker
  // has claimed it, and rethrows what the task threw.  Never blocks on a
  // task that is still queued.
  static void Wait(const Ticket& ticket);

 private:
  void WorkerMain(uint32_t index);
  static void PinTo(uint32_t index);

  uint32_t threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool stop_ = false;
  std::deque<Ticket> queue_;
  std::vector<std::thread> workers_;
};

class WorkerPool::Job {
 public:
  explicit Job(std::function<void()> fn) : fn_(std::move(fn)) {}

 private:
  friend class WorkerPool;
  enum : uint32_t { kQueued, kRunning, kDone };
  // Exactly one thread wins the claim and runs the task.
  bool Claim();
  // Runs the task, keeping an exception for Wait rather than letting it
  // end a worker thread.
  void Run();

  std::function<void()> fn_;
  std::exception_ptr error_;
  std::atomic<uint32_t> state_{kQueued};
};

}  // namespace bolted::sim

#endif  // SRC_SIM_WORKER_POOL_H_
