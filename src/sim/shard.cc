#include "src/sim/shard.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace bolted::sim {
namespace {

constexpr int64_t kNoEvent = std::numeric_limits<int64_t>::max();

// splitmix64: derives per-rack seeds from the fleet seed so rack Rng
// streams are independent but reproducible.  (The same finalizer the
// kernel's MixDigest uses, full-strength.)
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15u;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9u;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebu;
  return x ^ (x >> 31);
}

uint64_t MixDigest(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9u;
  h ^= h >> 27;
  return h;
}

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

void ShardedFleet::BarrierCompletion::operator()() noexcept {
  fleet->ComputeWindow();
}

ShardedFleet::ShardedFleet(const ShardOptions& options)
    : lookahead_(options.lookahead) {
  const uint32_t racks = options.racks == 0 ? 1 : options.racks;
  num_shards_ = std::clamp<uint32_t>(options.shards, 1, racks);
  const uint32_t workers = options.workers == 0 ? num_shards_ : options.workers;
  num_workers_ = std::clamp<uint32_t>(workers, 1, num_shards_);
  if (lookahead_.nanoseconds() < 1) {
    FatalShard("lookahead must be at least 1 ns");
  }

  racks_.reserve(racks);
  shards_.resize(num_shards_);
  for (uint32_t r = 0; r < racks; ++r) {
    auto rack = std::make_unique<Rack>();
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

  pool_ = std::make_unique<WorkerPool>(num_workers_, options.pin_workers);
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::RoutePhase(uint32_t d) {
  ShardState& st = shards_[d];
  // Barrier A ordered every append of the window before this read, and
  // the producers stay quiescent until barrier B.
  for (uint32_t s = 0; s < num_shards_; ++s) {
    std::vector<CrossShardFrame>& box = outbox(s, d);
    st.route_buf.insert(st.route_buf.end(), box.begin(), box.end());
    box.clear();
  }

  if (!st.route_buf.empty()) {
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
          Time::FromNanoseconds(frame.deliver_ns), [fleet, rack, f] {
            // Fold the frame identity into the destination digest so the
            // replay invariant covers payload routing, not just timing.
            rack->sim_->RecordTraceEvent((f.src_seq * 0x100000001b3u) ^
                                         (static_cast<uint64_t>(f.src_rack)
                                          << 32) ^
                                         f.kind);
            if (fleet->handler_) {
              fleet->handler_(*rack, f);
            }
          });
      // ScheduleAt clamps to the rack clock, which a rack that ran ahead
      // in an earlier Run() may hold past the delivery instant.
      int64_t& next = st.next_ns[frame.dst_rack - st.racks.front()];
      next = std::min(next, std::max(frame.deliver_ns,
                                     rack->sim_->now().nanoseconds()));
    }
    st.routed += st.route_buf.size();
    st.route_buf.clear();
  }

  st.min_next = *std::min_element(st.next_ns.begin(), st.next_ns.end());
}

void ShardedFleet::ComputeWindow() {
  int64_t min_next = kNoEvent;
  for (const ShardState& st : shards_) {
    min_next = std::min(min_next, st.min_next);
  }
  if (min_next == kNoEvent || min_next > limit_ns_) {
    // Every rack idle (or idle up to the horizon) and — since the route
    // phase drains every mailbox — no frame in flight: done.
    done_ = true;
    return;
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
}

void ShardedFleet::WorkerLoop(uint32_t worker) {
  // Window state (done_, window_end_ns_) was published by the previous
  // ComputeWindow — barrier B's completion, or for the first window
  // RunWindows before the pool dispatch — so every worker reads a settled
  // value.
  while (!done_) {
    for (uint32_t s = worker; s < num_shards_; s += num_workers_) {
      RunPhase(s);
    }
    if (num_workers_ == 1) {
      // One thread runs every phase in program order, so the barriers
      // would order nothing: route and reduce inline, like WorkerPool(1).
      for (uint32_t s = 0; s < num_shards_; ++s) {
        RoutePhase(s);
      }
      ComputeWindow();
      continue;
    }
    run_barrier_->arrive_and_wait();
    for (uint32_t s = worker; s < num_shards_; s += num_workers_) {
      RoutePhase(s);
    }
    route_barrier_->arrive_and_wait();  // completion runs ComputeWindow
  }
}

void ShardedFleet::RunWindows(int64_t limit_ns) {
  // Everything up to the first window runs on the caller before any
  // worker starts; RunOnAll's dispatch gives the happens-before edge.
  // Seed the next-event cache: between runs application code may have
  // scheduled or cancelled events on any rack.
  for (ShardState& st : shards_) {
    for (size_t i = 0; i < st.racks.size(); ++i) {
      Time next;
      st.next_ns[i] = racks_[st.racks[i]]->sim_->PeekNextEventTime(&next)
                          ? next.nanoseconds()
                          : kNoEvent;
    }
  }
  // Route the frames Rack::Send left in transit between runs.  No window
  // bounds them, so the boundary check is off; routing lowers the cache
  // entries and sets every shard's min_next.
  window_end_ns_ = std::numeric_limits<int64_t>::min();
  for (uint32_t d = 0; d < num_shards_; ++d) {
    RoutePhase(d);
  }
  done_ = false;
  limit_ns_ = limit_ns;
  ComputeWindow();

  if (num_workers_ > 1) {
    run_barrier_ = std::make_unique<std::barrier<>>(num_workers_);
    route_barrier_ = std::make_unique<std::barrier<BarrierCompletion>>(
        num_workers_, BarrierCompletion{this});
  }
  pool_->RunOnAll([this](uint32_t worker) { WorkerLoop(worker); });
  run_barrier_.reset();
  route_barrier_.reset();

  frames_routed_ = 0;
  rack_runs_ = 0;
  for (const ShardState& st : shards_) {
    frames_routed_ += st.routed;
    rack_runs_ += st.rack_runs;
  }
}

void ShardedFleet::Run() {
  RunWindows(kNoEvent);
  // Final task reap (and exception propagation) per rack, mirroring the
  // tail of Simulation::Run; the horizon equals each clock, so nothing
  // fires and no clock moves.
  for (auto& rack : racks_) {
    rack->sim_->RunUntil(rack->sim_->now());
  }
}

void ShardedFleet::RunUntil(Time horizon) {
  RunWindows(horizon.nanoseconds());
  // Align every rack clock to the horizon (RunUntil semantics).  All
  // events at or before it already fired, so this only advances clocks
  // and reaps.
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
