#include "src/sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace bolted::sim {

// Ordering argument (the proof DESIGN.md §10 spells out in full):
//
//  * Placement invariant: a record at level k satisfies
//      when >> (6*(k+1)) == wheel_time_ >> (6*(k+1))   (shares the parent
//      window; the top level's parent window is all of time) and, for
//      k >= 1, when >> (6*k) != wheel_time_ >> (6*k).
//    This holds at insertion by construction and is preserved as
//    wheel_time_ advances, because the cursor never passes the earliest
//    live event and prefix equality is monotone over [wheel_time_, when].
//    A refill jumps the cursor to that event, inside the earliest occupied
//    slot of the lowest occupied level k: nothing lower is occupied, the
//    cursor keeps every level-(k+1)-and-up slot index, and the one slot it
//    enters is cascaded, so every other record keeps its parent window and
//    a slot index that differs from the cursor's.
//
//  * Cross-level order: level-k events fire before all level-(k+1) events
//    (their level-(k+1) slot index equals the cursor's, which is strictly
//    below any occupied level-(k+1) slot).  Hence the earliest live event
//    is always in the earliest occupied slot of the lowest occupied
//    level — found with two ctz scans.
//
//  * Same-instant order: a level-0 slot spans exactly one nanosecond, so
//    a drained slot is one instant.  A slot list is at most one cascade's
//    records (cascades fill only empty levels) followed by direct
//    placements in seq order, so an instant's records normally arrive
//    sorted; the drain batch is insertion-sorted by seq on extraction,
//    O(n) in that case, without relying on it.  Events scheduled at the
//    drain instant *during* the drain carry larger seqs than the whole
//    batch and are appended.
//
//  * The cached minimum: wheel_min_, when known, is the least `when` in
//    the wheel.  Insertions lower it, and removing a record at that
//    instant forgets it.  A refill sets it to what it saw on the way: the
//    least `when` its cascade moved below the drained instant's level, or
//    the next occupied level-0 slot; it forgets it only when neither
//    holds a record.

WheelScheduler::WheelScheduler() {
  for (auto& level : heads_) {
    std::fill(std::begin(level), std::end(level), kNil);
  }
  for (auto& level : tails_) {
    std::fill(std::begin(level), std::end(level), kNil);
  }
}

uint32_t WheelScheduler::AllocRec(int64_t when, uint64_t seq, EventFn&& fn) {
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
  if (rec.when == wheel_min_) {
    wheel_min_ = kUnknown;  // the minimum may rise
  }
}

uint32_t WheelScheduler::TakeSlot(int level, int slot) {
  const uint32_t head = heads_[level][slot];
  heads_[level][slot] = kNil;
  tails_[level][slot] = kNil;
  occupancy_[level] &= ~(uint64_t{1} << slot);
  return head;
}

int WheelScheduler::LowestLevel() const {
  int level = 0;
  while (occupancy_[level] == 0) {
    ++level;
  }
  return level;
}

int64_t WheelScheduler::EarliestIn(int level, int slot) const {
  int64_t earliest = std::numeric_limits<int64_t>::max();
  for (uint32_t index = heads_[level][slot]; index != kNil;
       index = recs_[index].next) {
    earliest = std::min(earliest, recs_[index].when);
  }
  return earliest;
}

void WheelScheduler::Place(uint32_t index) {
  // The highest bit where `when` and the cursor differ picks the level:
  // every bit above that level's slot index matches.  Both times are
  // non-negative, so that bit is at most 62 and the level at most 10.
  const int64_t when = recs_[index].when;
  const int level =
      (std::bit_width(static_cast<uint64_t>(when ^ wheel_time_) | 1) - 1) /
      kSlotBits;
  PushSlot(level,
           static_cast<int>((when >> (kSlotBits * level)) & (kSlots - 1)),
           index);
}

EventId WheelScheduler::Schedule(Time now_t, Time when_t, uint64_t seq,
                                 EventFn&& fn) {
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
    // The wheel's only record sets the minimum; any other lowers a known
    // one (kUnknown, below every `when`, stays unknown).
    wheel_min_ = live_ - drain_live_ == 1 ? when : std::min(wheel_min_, when);
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
    case State::kFree:
    case State::kDead:
      break;  // double cancel of a still-referenced tombstone
  }
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
  if (live_ == 0) {
    return false;
  }

  const int level = LowestLevel();
  int slot = std::countr_zero(occupancy_[level]);
  // The least `when` the wheel keeps after this batch leaves it, when the
  // refill sees it on the way.
  int64_t next_min = kUnknown;
  if (level > 0) {
    // Skip ahead: jump the cursor to the earliest live `when`, which lies
    // in this slot, and cascade the slot once.  Its records at that
    // instant land in level 0; the rest land below this level, ahead of
    // every record left at it or above, so their least `when` is the next
    // minimum.
    wheel_time_ = wheel_min_ != kUnknown ? wheel_min_ : EarliestIn(level, slot);
    int64_t rest = std::numeric_limits<int64_t>::max();
    for (uint32_t index = TakeSlot(level, slot); index != kNil;) {
      const uint32_t next = recs_[index].next;
      if (recs_[index].when != wheel_time_) {
        rest = std::min(rest, recs_[index].when);
      }
      Place(index);
      index = next;
    }
    if (rest != std::numeric_limits<int64_t>::max()) {
      next_min = rest;
    }
    slot = std::countr_zero(occupancy_[0]);
  }

  // One exact instant: move the earliest level-0 slot into the drain
  // batch and insertion-sort it by seq.
  wheel_time_ = (wheel_time_ & ~int64_t{kSlots - 1}) | slot;
  for (uint32_t index = TakeSlot(0, slot); index != kNil;
       index = recs_[index].next) {
    recs_[index].state = State::kDrain;
    size_t at = drain_.size();
    drain_.push_back(index);
    for (; at > 0 && recs_[drain_[at - 1]].seq > recs_[index].seq; --at) {
      drain_[at] = drain_[at - 1];
    }
    drain_[at] = index;
  }
  drain_live_ = drain_.size();
  drain_time_ = wheel_time_;
  if (level == 0 && occupancy_[0] != 0) {
    // Level 0 fires before every higher level, one instant per slot.
    next_min = (wheel_time_ & ~int64_t{kSlots - 1}) | std::countr_zero(occupancy_[0]);
  }
  wheel_min_ = next_min;
  return true;
}

bool WheelScheduler::PeekNextTime(Time* when) {
  if (drain_live_ > 0) {
    *when = Time::FromNanoseconds(drain_time_);
    return true;
  }
  if (live_ == 0) {
    return false;
  }
  // Cross-level order makes the earliest live event sit in the earliest
  // occupied slot of the lowest occupied level; within that slot (a span
  // of 2^(6k) ns for level k) the minimum `when` wins.
  if (wheel_min_ == kUnknown) {
    const int level = LowestLevel();
    wheel_min_ = EarliestIn(level, std::countr_zero(occupancy_[level]));
  }
  *when = Time::FromNanoseconds(wheel_min_);
  return true;
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
