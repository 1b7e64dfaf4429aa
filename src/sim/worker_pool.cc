#include "src/sim/worker_pool.h"

#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace bolted::sim {

WorkerPool::WorkerPool(uint32_t threads)
    : threads_(threads == 0 ? 1 : threads) {
  if (threads_ > 1) {
    PinTo(0);  // the caller is thread 0
  }
  workers_.reserve(threads_ - 1);
  for (uint32_t t = 1; t < threads_; ++t) {
    workers_.emplace_back(&WorkerPool::WorkerMain, this, t);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void WorkerPool::PinTo(uint32_t index) {
#ifdef __linux__
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    return;  // pinning a single-core host only hurts
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cores, &set);
  // Best effort: a restricted cpuset (containers) may refuse, and the
  // pool works fine unpinned.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

void WorkerPool::WorkerMain(uint32_t index) {
  PinTo(index);
  for (;;) {
    Ticket task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (task->Claim()) {
      task->Run();  // a Wait that claimed it first already ran it
    }
  }
}

WorkerPool::Ticket WorkerPool::Submit(std::function<void()> fn) {
  Ticket ticket = std::make_shared<Job>(std::move(fn));
  if (threads_ > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(ticket);
    }
    work_cv_.notify_one();
  }
  return ticket;
}

void WorkerPool::Wait(const Ticket& ticket) {
  if (ticket->Claim()) {
    ticket->Run();
  } else {
    // A worker is running it: sleep until its release store of kDone.
    uint32_t state = ticket->state_.load(std::memory_order_acquire);
    while (state != Job::kDone) {
      ticket->state_.wait(state, std::memory_order_acquire);
      state = ticket->state_.load(std::memory_order_acquire);
    }
  }
  if (ticket->error_ != nullptr) {
    std::rethrow_exception(ticket->error_);
  }
}

bool WorkerPool::Job::Claim() {
  uint32_t expected = kQueued;
  return state_.compare_exchange_strong(expected, kRunning,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void WorkerPool::Job::Run() {
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
  fn_ = nullptr;  // drop the task's captures on the thread that ran it
  state_.store(kDone, std::memory_order_release);
  state_.notify_all();
}

}  // namespace bolted::sim
