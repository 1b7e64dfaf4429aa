#include "src/sim/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "src/sim/random.h"

namespace bolted::sim {
namespace {

constexpr int64_t kNoEvent = std::numeric_limits<int64_t>::max();

// Canonical inbound order: delivery instant, then source rack, then the
// source's send counter.  Total (no two frames compare equal), so the
// destination's seq assignment is independent of which shard or worker
// carried each frame.
bool CanonicalLess(const CrossShardFrame& a, const CrossShardFrame& b) {
  if (a.deliver_ns != b.deliver_ns) {
    return a.deliver_ns < b.deliver_ns;
  }
  if (a.src_rack != b.src_rack) {
    return a.src_rack < b.src_rack;
  }
  return a.src_seq < b.src_seq;
}

[[noreturn]] void FatalShard(const char* msg) {
  std::fprintf(stderr, "bolted::sim sharding: %s\n", msg);
  std::abort();
}

}  // namespace

// --- Rack -------------------------------------------------------------------

void Rack::Send(uint32_t dst_rack, Duration delay, uint32_t kind,
                uint32_t bytes, uint64_t payload0, uint64_t payload1) {
  if (dst_rack >= fleet_->num_racks()) {
    FatalShard("Rack::Send to out-of-range rack");
  }
  if (delay < fleet_->lookahead()) {
    // The whole conservative-sync argument rests on this bound: a frame
    // below lookahead could land inside a window the destination already
    // executed past.
    FatalShard("Rack::Send delay below the fleet lookahead");
  }
  CrossShardFrame frame;
  frame.deliver_ns = (sim_->now() + delay).nanoseconds();
  frame.payload0 = payload0;
  frame.payload1 = payload1;
  frame.src_rack = index_;
  frame.dst_rack = dst_rack;
  frame.kind = kind;
  frame.bytes = bytes;
  frame.src_seq = send_seq_++;
  fleet_->outbox(shard_, fleet_->racks_[dst_rack]->shard_).push_back(frame);
}

// --- ShardedFleet -----------------------------------------------------------

ShardedFleet::ShardedFleet(const ShardOptions& options)
    : lookahead_(options.lookahead) {
  const uint32_t racks = options.racks == 0 ? 1 : options.racks;
  num_shards_ = std::clamp<uint32_t>(options.shards, 1, racks);
  const uint32_t workers = options.workers == 0 ? num_shards_ : options.workers;
  const uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t threads =
      std::clamp<uint32_t>(workers, 1, std::min(num_shards_, cores));
  if (lookahead_.nanoseconds() < 1) {
    FatalShard("lookahead must be at least 1 ns");
  }

  racks_.reserve(racks);
  shards_.resize(num_shards_);
  for (uint32_t r = 0; r < racks; ++r) {
    auto rack = std::make_unique<Rack>();
    // Per-rack seeds: independent but reproducible rack Rng streams.
    rack->sim_ = std::make_unique<Simulation>(
        SplitMix64(options.seed ^ (0x7261636bu + r)));
    rack->fleet_ = this;
    rack->index_ = r;
    // Contiguous stripes: rack r belongs to shard floor(r*S/R), so racks
    // that are physical neighbours share a shard (and a worker's caches).
    rack->shard_ = static_cast<uint32_t>(
        (static_cast<uint64_t>(r) * num_shards_) / racks);
    shards_[rack->shard_].racks.push_back(r);
    shards_[rack->shard_].next_ns.push_back(kNoEvent);
    racks_.push_back(std::move(rack));
  }

  outboxes_.resize(static_cast<size_t>(num_shards_) * num_shards_);
  busy_.reserve(num_shards_);
  if (threads > 1) {
    pool_ = std::make_unique<WorkerPool>(threads);
  }
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::RoutePhase(uint32_t d) {
  ShardState& st = shards_[d];
  // The run phase's join ordered every append of the window before this
  // read, and no shard appends again until this phase's join.
  for (uint32_t s = 0; s < num_shards_; ++s) {
    std::vector<CrossShardFrame>& box = outbox(s, d);
    st.route_buf.insert(st.route_buf.end(), box.begin(), box.end());
    box.clear();
  }

  std::sort(st.route_buf.begin(), st.route_buf.end(), CanonicalLess);
  for (const CrossShardFrame& frame : st.route_buf) {
    if (frame.deliver_ns < window_end_ns_) {
      // Lookahead guarantees deliver >= window_end for every frame sent
      // inside the window; a violation here means the sync is broken.
      FatalShard("cross-shard frame below the window boundary");
    }
    Rack* rack = racks_[frame.dst_rack].get();
    ShardedFleet* fleet = this;
    CrossShardFrame f = frame;
    rack->sim_->ScheduleAt(
        Time::FromNanoseconds(frame.deliver_ns), [fleet, f] {
          Rack& dst = *fleet->racks_[f.dst_rack];
          // Fold the frame identity into the destination digest so the
          // replay invariant covers payload routing, not just timing.
          dst.sim_->RecordTraceEvent((f.src_seq * 0x100000001b3u) ^
                                     (static_cast<uint64_t>(f.src_rack)
                                      << 32) ^
                                     f.kind);
          if (fleet->handler_) {
            fleet->handler_(dst, f);
          }
        });
    // ScheduleAt clamps to the rack clock, which a rack that ran ahead
    // in an earlier Run() may hold past the delivery instant.
    int64_t& next = st.next_ns[frame.dst_rack - st.racks.front()];
    next = std::min(next, std::max(frame.deliver_ns,
                                   rack->sim_->now().nanoseconds()));
    st.min_next = std::min(st.min_next, next);
  }
  st.routed += st.route_buf.size();
  st.route_buf.clear();
}

bool ShardedFleet::ComputeWindow() {
  int64_t min_next = kNoEvent;
  for (const ShardState& st : shards_) {
    min_next = std::min(min_next, st.min_next);
  }
  if (min_next == kNoEvent || min_next > limit_ns_) {
    // Every rack idle (or idle up to the horizon) and — since the route
    // phase drains every mailbox — no frame in flight: done.
    return false;
  }
  // The conservative window: everything strictly before min_next + L is
  // safe, because a cross-rack frame sent at t >= min_next with delay >=
  // L delivers at or after the boundary.
  const int64_t la = lookahead_.nanoseconds();
  int64_t end = min_next > kNoEvent - la ? kNoEvent : min_next + la;
  if (limit_ns_ < kNoEvent - 1) {
    end = std::min(end, limit_ns_ + 1);  // RunUntil fires events at == limit
  }
  window_end_ns_ = end;
  ++windows_;
  return true;
}

void ShardedFleet::RunPhase(uint32_t s) {
  ShardState& st = shards_[s];
  const Time end = Time::FromNanoseconds(window_end_ns_);
  for (size_t i = 0; i < st.racks.size(); ++i) {
    if (st.next_ns[i] >= window_end_ns_) {
      continue;  // nothing due in this window
    }
    Time next;
    st.next_ns[i] = racks_[st.racks[i]]->sim_->RunBefore(end, &next)
                        ? next.nanoseconds()
                        : kNoEvent;
    ++st.rack_runs;
  }
  st.min_next = *std::min_element(st.next_ns.begin(), st.next_ns.end());
}

template <typename Busy>
void ShardedFleet::ForkJoin(void (ShardedFleet::*phase)(uint32_t),
                            const Busy& busy) {
  busy_.clear();
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (busy(s)) {
      busy_.push_back(s);
    }
  }
  if (pool_ == nullptr || busy_.size() < 2) {
    for (const uint32_t s : busy_) {
      (this->*phase)(s);  // no other thread: shard order, on the caller
    }
    return;
  }
  for (size_t i = 1; i < busy_.size(); ++i) {
    const uint32_t s = busy_[i];
    tickets_.push_back(pool_->Submit([this, phase, s] { (this->*phase)(s); }));
  }
  std::exception_ptr error;
  try {
    (this->*phase)(busy_.front());
  } catch (...) {
    error = std::current_exception();
  }
  // Newest first, so this thread runs every task no worker has claimed.
  // Every task finishes before anything is rethrown, and the lowest shard
  // that threw wins: the one a single thread would have hit first.
  std::exception_ptr task_error;
  for (auto it = tickets_.rbegin(); it != tickets_.rend(); ++it) {
    try {
      WorkerPool::Wait(*it);
    } catch (...) {
      task_error = std::current_exception();
    }
  }
  tickets_.clear();
  if (error == nullptr) {
    error = task_error;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ShardedFleet::RunWindows(int64_t limit_ns) {
  // Seed the next-event cache: between runs application code may have
  // scheduled or cancelled events on any rack.
  for (ShardState& st : shards_) {
    for (size_t i = 0; i < st.racks.size(); ++i) {
      Time next;
      st.next_ns[i] = racks_[st.racks[i]]->sim_->PeekNextEventTime(&next)
                          ? next.nanoseconds()
                          : kNoEvent;
    }
    st.min_next = *std::min_element(st.next_ns.begin(), st.next_ns.end());
  }
  const auto has_inbound = [this](uint32_t d) {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!outbox(s, d).empty()) {
        return true;
      }
    }
    return false;
  };
  const auto has_work = [this](uint32_t s) {
    return shards_[s].min_next < window_end_ns_;
  };
  // Route the frames Rack::Send left in transit between runs.  No window
  // bounds them, so the boundary check is off.
  window_end_ns_ = std::numeric_limits<int64_t>::min();
  limit_ns_ = limit_ns;
  ForkJoin(&ShardedFleet::RoutePhase, has_inbound);
  while (ComputeWindow()) {
    ForkJoin(&ShardedFleet::RunPhase, has_work);
    ForkJoin(&ShardedFleet::RoutePhase, has_inbound);
  }

  frames_routed_ = 0;
  rack_runs_ = 0;
  for (const ShardState& st : shards_) {
    frames_routed_ += st.routed;
    rack_runs_ += st.rack_runs;
  }
}

void ShardedFleet::Run() {
  RunWindows(kNoEvent);
  // Rethrows a rack's task failure that no window met (a task that threw
  // outside a run, on a rack with no events); the horizon equals each
  // clock, so nothing fires and no clock moves.
  for (auto& rack : racks_) {
    rack->sim_->RunUntil(rack->sim_->now());
  }
}

void ShardedFleet::RunUntil(Time horizon) {
  RunWindows(horizon.nanoseconds());
  // Align every rack clock to the horizon (RunUntil semantics).  All
  // events at or before it already fired, so this only advances clocks
  // and rethrows a task failure that no window met.
  for (auto& rack : racks_) {
    rack->sim_->RunUntil(horizon);
  }
}

uint64_t ShardedFleet::events_processed() const {
  uint64_t total = 0;
  for (const auto& rack : racks_) {
    total += rack->sim_->events_processed();
  }
  return total;
}

uint64_t ShardedFleet::fleet_digest() const {
  uint64_t digest = 0x666c656574u;  // "fleet"
  for (const auto& rack : racks_) {
    digest = MixDigest(digest, rack->sim_->trace_digest());
  }
  return digest;
}

}  // namespace bolted::sim
