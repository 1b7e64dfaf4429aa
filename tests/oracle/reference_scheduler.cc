#include "tests/oracle/reference_scheduler.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace bolted::oracle {

sim::EventId ReferenceScheduler::Schedule(sim::Time /*now*/, sim::Time when,
                                          uint64_t seq, sim::EventFn fn) {
  const sim::EventId id = next_id_++;
  pending_.insert(id);
  heap_.push_back(Entry{when, seq, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  return id;
}

void ReferenceScheduler::Cancel(sim::EventId id) {
  // Removing the id from pending_ is the whole cancellation; the heap
  // entry is dropped lazily when it reaches the top.  Cancelling a fired
  // or already-cancelled id finds nothing to erase, so stale cancels can
  // never accumulate state.  This is safe under re-entrancy: the currently
  // firing event was erased from pending_ before its callback ran, so a
  // callback cancelling a same-tick sibling only ever marks entries that
  // have not fired yet.
  if (pending_.erase(id) != 0) {
    ++dead_in_heap_;
    MaybeCompactHeap();
  }
}

void ReferenceScheduler::MaybeCompactHeap() {
  // Lazy deletion leaves cancelled entries in the heap until they surface
  // at the top.  Workloads that re-arm timers far in the future and cancel
  // them every round (RPC retry timeouts under fault injection) would grow
  // the heap without bound; rebuild once tombstones dominate.
  if (dead_in_heap_ < 64 || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  std::erase_if(heap_,
                [this](const Entry& e) { return !pending_.contains(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  dead_in_heap_ = 0;
}

ReferenceScheduler::Entry ReferenceScheduler::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  return entry;
}

void ReferenceScheduler::DropCancelledTop() {
  while (!heap_.empty() && !pending_.contains(heap_.front().id)) {
    PopTop();
    --dead_in_heap_;
  }
}

bool ReferenceScheduler::PeekNextTime(sim::Time* when) {
  DropCancelledTop();
  if (heap_.empty()) {
    return false;
  }
  *when = heap_.front().when;
  return true;
}

bool ReferenceScheduler::PopNext(sim::Time* when, uint64_t* seq,
                                 sim::EventFn* fn) {
  DropCancelledTop();
  if (heap_.empty()) {
    return false;
  }
  Entry entry = PopTop();
  pending_.erase(entry.id);
  *when = entry.when;
  *seq = entry.seq;
  *fn = std::move(entry.fn);
  return true;
}

}  // namespace bolted::oracle
