#include "src/sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

namespace bolted::sim {

// Ordering argument (the proof DESIGN.md §10 spells out in full):
//
//  * Placement invariant: a record at level k satisfies
//      when >> (6*(k+1)) == wheel_time_ >> (6*(k+1))   (shares the parent
//      window) and, for k >= 1, when >> (6*k) != wheel_time_ >> (6*k).
//    This holds at insertion by construction and is preserved as
//    wheel_time_ advances, because the cursor never passes the earliest
//    live event and prefix equality is monotone over [wheel_time_, when].
//
//  * Cross-level order: level-k events fire before all level-(k+1) events
//    (their level-(k+1) slot index equals the cursor's, which is strictly
//    below any occupied level-(k+1) slot), and all wheel events fire
//    before all spill events (spill records live in a later 2^48 epoch).
//    Hence the earliest live event is always in the earliest occupied
//    slot of the lowest occupied level — found with two ctz scans.
//
//  * Same-instant order: a level-0 slot spans exactly one nanosecond, so
//    a drained slot is one instant.  Slot lists are not seq-sorted
//    (cascades interleave records scheduled at different times), so the
//    drain batch is sorted by seq once on extraction; events scheduled at
//    the drain instant *during* the drain carry larger seqs than the
//    whole batch and are appended.

WheelScheduler::WheelScheduler() {
  for (auto& level : heads_) {
    std::fill(std::begin(level), std::end(level), kNil);
  }
  for (auto& level : tails_) {
    std::fill(std::begin(level), std::end(level), kNil);
  }
}

uint32_t WheelScheduler::AllocRec(int64_t when, uint64_t seq, EventFn fn) {
  uint32_t index;
  if (!free_recs_.empty()) {
    index = free_recs_.back();
    free_recs_.pop_back();
  } else {
    index = static_cast<uint32_t>(recs_.size());
    recs_.emplace_back();
  }
  Rec& rec = recs_[index];
  rec.when = when;
  rec.seq = seq;
  rec.fn = std::move(fn);
  rec.prev = kNil;
  rec.next = kNil;
  return index;
}

void WheelScheduler::FreeRec(uint32_t index) {
  Rec& rec = recs_[index];
  rec.fn = EventFn();
  rec.state = State::kFree;
  // Bump the generation so any outstanding handle to this slot goes
  // stale; skip 0 on wrap so ids are never 0.
  if (++rec.gen == 0) {
    rec.gen = 1;
  }
  free_recs_.push_back(index);
}

void WheelScheduler::PushSlot(int level, int slot, uint32_t index) {
  Rec& rec = recs_[index];
  rec.state = State::kWheel;
  rec.level = static_cast<uint8_t>(level);
  rec.slot = static_cast<uint8_t>(slot);
  rec.next = kNil;
  rec.prev = tails_[level][slot];
  if (rec.prev != kNil) {
    recs_[rec.prev].next = index;
  } else {
    heads_[level][slot] = index;
  }
  tails_[level][slot] = index;
  occupancy_[level] |= uint64_t{1} << slot;
}

void WheelScheduler::UnlinkFromSlot(uint32_t index) {
  Rec& rec = recs_[index];
  const int level = rec.level;
  const int slot = rec.slot;
  if (rec.prev != kNil) {
    recs_[rec.prev].next = rec.next;
  } else {
    heads_[level][slot] = rec.next;
  }
  if (rec.next != kNil) {
    recs_[rec.next].prev = rec.prev;
  } else {
    tails_[level][slot] = rec.prev;
  }
  if (heads_[level][slot] == kNil) {
    occupancy_[level] &= ~(uint64_t{1} << slot);
  }
}

void WheelScheduler::Place(uint32_t index) {
  Rec& rec = recs_[index];
  const int64_t when = rec.when;
  for (int k = 0; k < kLevels; ++k) {
    const int shift = kSlotBits * (k + 1);
    if ((when >> shift) == (wheel_time_ >> shift)) {
      const int slot =
          static_cast<int>((when >> (kSlotBits * k)) & (kSlots - 1));
      PushSlot(k, slot, index);
      return;
    }
  }
  rec.state = State::kSpill;
  spill_.push_back(SpillEntry{when, rec.seq, index});
  std::push_heap(spill_.begin(), spill_.end(), std::greater<>());
}

EventId WheelScheduler::Schedule(Time now_t, Time when_t, uint64_t seq,
                                 EventFn fn) {
  const int64_t when = when_t.nanoseconds();
  assert(when >= wheel_time_);
  const uint32_t index = AllocRec(when, seq, std::move(fn));
  ++live_;
  if (when == drain_time_) {
    // Scheduled at the instant currently draining (only reachable from a
    // same-instant callback, or by arming an immediate event while the
    // clock sits on an exhausted batch): join the batch.  seq exceeds
    // every entry already there, so appending keeps the batch sorted.
    recs_[index].state = State::kDrain;
    drain_.push_back(index);
    ++drain_live_;
  } else {
    if (live_ == 1) {
      // Queue was empty: snap the cursor up to the clock (the lower bound
      // on every future `when`) so placement doesn't cascade down from
      // wherever the last burst left the wheel.
      wheel_time_ = std::max(wheel_time_, now_t.nanoseconds());
    }
    Place(index);
  }
  return MakeId(recs_[index].gen, index);
}

void WheelScheduler::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= recs_.size()) {
    return;
  }
  Rec& rec = recs_[index];
  if (rec.gen != gen) {
    return;  // stale handle: the event fired (or was cancelled) long ago
  }
  switch (rec.state) {
    case State::kWheel:
      UnlinkFromSlot(index);
      --live_;
      FreeRec(index);
      break;
    case State::kDrain:
      // drain_ holds the index by position; tombstone it and let the
      // drain cursor (or the next refill) reclaim the record.
      rec.state = State::kDead;
      rec.fn = EventFn();
      --drain_live_;
      --live_;
      break;
    case State::kSpill:
      rec.state = State::kDead;
      rec.fn = EventFn();
      ++spill_dead_;
      --live_;
      MaybeCompactSpill();
      break;
    case State::kFree:
    case State::kDead:
      break;  // double cancel of a still-referenced tombstone
  }
}

void WheelScheduler::PruneSpillTop() {
  while (!spill_.empty() && recs_[spill_.front().rec].state == State::kDead) {
    const uint32_t index = spill_.front().rec;
    std::pop_heap(spill_.begin(), spill_.end(), std::greater<>());
    spill_.pop_back();
    --spill_dead_;
    FreeRec(index);
  }
}

void WheelScheduler::MaybeCompactSpill() {
  if (spill_dead_ < 64 || spill_dead_ * 2 < spill_.size()) {
    return;
  }
  std::erase_if(spill_, [this](const SpillEntry& e) {
    if (recs_[e.rec].state == State::kDead) {
      FreeRec(e.rec);
      return true;
    }
    return false;
  });
  std::make_heap(spill_.begin(), spill_.end(), std::greater<>());
  spill_dead_ = 0;
}

bool WheelScheduler::RefillDrain() {
  // Reclaim tombstones left in the exhausted batch (entries cancelled
  // after the cursor passed them, or after the batch's instant fired out).
  for (size_t i = drain_cursor_; i < drain_.size(); ++i) {
    if (recs_[drain_[i]].state == State::kDead) {
      FreeRec(drain_[i]);
    }
  }
  drain_.clear();
  drain_cursor_ = 0;
  drain_live_ = 0;

  for (;;) {
    int level = -1;
    for (int k = 0; k < kLevels; ++k) {
      if (occupancy_[k] != 0) {
        level = k;
        break;
      }
    }

    if (level < 0) {
      // Wheel empty: promote the spill's earliest epoch into the wheel.
      PruneSpillTop();
      if (spill_.empty()) {
        return false;
      }
      const int64_t epoch = spill_.front().when >> kEpochBits;
      wheel_time_ = epoch << kEpochBits;
      while (!spill_.empty() && (spill_.front().when >> kEpochBits) == epoch) {
        const SpillEntry top = spill_.front();
        std::pop_heap(spill_.begin(), spill_.end(), std::greater<>());
        spill_.pop_back();
        if (recs_[top.rec].state == State::kDead) {
          --spill_dead_;
          FreeRec(top.rec);
        } else {
          Place(top.rec);  // same epoch => lands in the wheel
        }
      }
      continue;
    }

    const int slot = std::countr_zero(occupancy_[level]);

    if (level == 0) {
      // One exact instant: move the slot into the drain batch.
      const int64_t t =
          ((wheel_time_ >> kSlotBits) << kSlotBits) | int64_t{slot};
      wheel_time_ = t;
      for (uint32_t index = heads_[0][slot]; index != kNil;) {
        const uint32_t next = recs_[index].next;
        recs_[index].state = State::kDrain;
        drain_.push_back(index);
        index = next;
      }
      heads_[0][slot] = kNil;
      tails_[0][slot] = kNil;
      occupancy_[0] &= ~(uint64_t{1} << slot);
      std::sort(drain_.begin(), drain_.end(),
                [this](uint32_t a, uint32_t b) {
                  return recs_[a].seq < recs_[b].seq;
                });
      drain_live_ = drain_.size();
      drain_time_ = t;
      return true;
    }

    // Cascade: advance the cursor to the start of the earliest occupied
    // slot (no lower level holds anything, so nothing is skipped) and
    // redistribute its records, which now fit below this level.
    const int parent_shift = kSlotBits * (level + 1);
    wheel_time_ = ((wheel_time_ >> parent_shift) << parent_shift) |
                  (int64_t{slot} << (kSlotBits * level));
    uint32_t index = heads_[level][slot];
    heads_[level][slot] = kNil;
    tails_[level][slot] = kNil;
    occupancy_[level] &= ~(uint64_t{1} << slot);
    while (index != kNil) {
      const uint32_t next = recs_[index].next;
      Place(index);
      index = next;
    }
  }
}

bool WheelScheduler::PeekNextTime(Time* when) {
  if (drain_live_ > 0) {
    *when = Time::FromNanoseconds(drain_time_);
    return true;
  }
  // Cross-level order makes the earliest live event sit in the earliest
  // occupied slot of the lowest occupied level; within that slot (a span
  // of 2^(6k) ns for level k) the minimum `when` wins.
  for (int k = 0; k < kLevels; ++k) {
    if (occupancy_[k] == 0) {
      continue;
    }
    const int slot = std::countr_zero(occupancy_[k]);
    int64_t earliest = recs_[heads_[k][slot]].when;
    for (uint32_t index = recs_[heads_[k][slot]].next; index != kNil;
         index = recs_[index].next) {
      earliest = std::min(earliest, recs_[index].when);
    }
    *when = Time::FromNanoseconds(earliest);
    return true;
  }
  PruneSpillTop();
  if (!spill_.empty()) {
    *when = Time::FromNanoseconds(spill_.front().when);
    return true;
  }
  return false;
}

bool WheelScheduler::PopNext(Time* when, uint64_t* seq, EventFn* fn) {
  if (drain_live_ == 0 && !RefillDrain()) {
    return false;
  }
  for (;;) {
    const uint32_t index = drain_[drain_cursor_++];
    Rec& rec = recs_[index];
    if (rec.state == State::kDead) {
      FreeRec(index);
      continue;
    }
    *when = Time::FromNanoseconds(rec.when);
    *seq = rec.seq;
    *fn = std::move(rec.fn);
    --drain_live_;
    --live_;
    FreeRec(index);
    return true;
  }
}

}  // namespace bolted::sim
