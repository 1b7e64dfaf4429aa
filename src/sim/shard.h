// Rack-sharded parallel simulation with conservative time synchronization
// (DESIGN.md §12).
//
// The fabric is partitioned into racks; each rack owns a full Simulation
// (its own 11×64 timing wheel, seq counter, Rng stream, and trace digest),
// so the unit of determinism is the rack, not the thread.  Racks are
// grouped into shards — the transport topology — and shards are executed
// by a pool of pinned worker threads.  Because every rack's event stream
// is a pure function of (seed, scenario, routed cross-rack frames), the
// per-rack trace digests are byte-identical for every shard count and
// every worker count: the shards=1, workers=1 configuration is the
// single-threaded oracle the chaos sweep replays against.
//
// Time synchronization is conservative (null-message/LBTS style, run as
// synchronous windows): the inter-rack link latency is the lookahead L.
// Each window executes, on every rack that has one, the events strictly
// before
//
//   window_end = (min over all racks of next-event-time) + L,
//
// because any cross-rack frame generated inside the window is sent at
// some t >= min_next with delay >= L, hence delivered at >= window_end —
// it cannot affect the window being executed.  Each shard caches its
// racks' next-event times, so a window visits only the racks with an
// event before window_end.  At the window barrier the router drains
// every shard-pair mailbox, sorts each destination rack's inbound frames
// into the canonical (deliver_ns, src_rack, src_seq) order, and
// schedules them; destination-side seq assignment is therefore identical
// no matter which shard or worker produced the frames.
//
// The window sequence is an input to a rack's digest.  A routed frame
// takes its destination seq in the route phase after the window that
// sent it, so the window boundaries decide how routed frames interleave
// with the destination's own schedules.  Digests are invariant across
// shard and worker counts at one lookahead, not across lookaheads.
//
// Cross-shard transport is one plain vector mailbox per shard pair.
// Rack::Send appends to outbox(own shard, destination shard); the route
// phase of shard d moves every outbox(s, d) into its routing buffer and
// clears them.  Barrier A orders every append of a window before the
// drain that reads it, and barrier B orders that drain before the next
// window's appends, so a mailbox has one writer phase and one reader
// phase and needs no atomics.  A mailbox grows instead of refusing a
// frame: a simulation may never drop or block.
//
// Thread discipline: a rack is only ever touched by the worker that owns
// its shard (the mapping is fixed for a run), and the run/route phases
// are separated by barriers, so rack Simulations need no locks.  The same
// mapping gives each outbox row one writer (the source shard's worker, in
// the run phase) and each outbox column one reader (the destination
// shard's worker, in the route phase).  With a single worker the phases
// simply run in program order and no barrier is crossed.  The frame
// handler is invoked on the owning worker and must confine itself to the
// destination rack passed to it.  Within a run, a rack's queue therefore
// changes only through its own events and through routing, which is what
// keeps the next-event cache exact.  Between runs application code may
// schedule, cancel, or Rack::Send freely: each run first routes the
// frames still in transit, then re-reads every rack's next-event time.

#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/sim/worker_pool.h"

namespace bolted::sim {

class ShardedFleet;

// One cross-rack frame.  POD by design: frames are copied between shards'
// mailboxes, so they carry plain words, not closures — the destination
// rack's frame handler interprets kind/payload.  `bytes` is the modeled
// wire size (accounting only; the latency is the send delay).
struct CrossShardFrame {
  int64_t deliver_ns = 0;  // absolute delivery instant (simulated ns)
  uint64_t payload0 = 0;
  uint64_t payload1 = 0;
  uint32_t src_rack = 0;
  uint32_t dst_rack = 0;
  uint32_t kind = 0;   // application-defined discriminator
  uint32_t bytes = 0;  // modeled wire bytes
  // Per-source-rack send counter; the third key of the canonical inbound
  // sort, so two frames from one rack can never tie.
  uint64_t src_seq = 0;
};

struct ShardOptions {
  uint32_t racks = 1;
  // Rack partitions (one mailbox per ordered shard pair).  Rack r belongs
  // to the shard owning the contiguous stripe containing r.  Clamped to
  // racks.
  uint32_t shards = 1;
  // Worker threads executing shards (shard s runs on worker s % workers).
  // 0 means one worker per shard.  Clamped to shards.
  uint32_t workers = 0;
  // Conservative lookahead: the minimum cross-rack delivery delay.  Every
  // Rack::Send delay must be >= lookahead (checked fatally).
  Duration lookahead = Duration::Microseconds(50);
  uint64_t seed = 0x626f6c746564u;
  bool pin_workers = false;
};

// One rack: a full Simulation plus its cross-rack egress.  Application
// code receives Rack& (from rack() or the frame handler) and drives the
// rack's sim exactly like a standalone one.
class Rack {
 public:
  Simulation& sim() { return *sim_; }
  const Simulation& sim() const { return *sim_; }
  uint32_t index() const { return index_; }

  // Sends a cross-rack frame delivered `delay` from now.  delay must be
  // >= the fleet lookahead — that bound is exactly what lets this rack's
  // window run ahead of the destination's clock — so a shorter delay is
  // a conservative-sync violation and aborts.  kind/bytes/payload are
  // application-owned; src/seq/deliver_ns are stamped here.
  void Send(uint32_t dst_rack, Duration delay, uint32_t kind, uint32_t bytes,
            uint64_t payload0 = 0, uint64_t payload1 = 0);

 private:
  friend class ShardedFleet;
  std::unique_ptr<Simulation> sim_;
  ShardedFleet* fleet_ = nullptr;
  uint32_t index_ = 0;
  uint32_t shard_ = 0;
  uint64_t send_seq_ = 0;
};

class ShardedFleet {
 public:
  // Invoked on the owning worker when a frame's delivery instant fires in
  // the destination rack's event stream.  Must be safe to call
  // concurrently for *different* racks (capture immutable config; mutate
  // only through the Rack argument and per-rack state).
  using FrameHandler = std::function<void(Rack&, const CrossShardFrame&)>;

  explicit ShardedFleet(const ShardOptions& options);
  ~ShardedFleet();
  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  uint32_t num_racks() const { return static_cast<uint32_t>(racks_.size()); }
  Duration lookahead() const { return lookahead_; }
  Rack& rack(uint32_t index) { return *racks_[index]; }
  const Rack& rack(uint32_t index) const { return *racks_[index]; }

  void set_frame_handler(FrameHandler handler) { handler_ = std::move(handler); }

  // Runs until every rack's queue drains and no frame is in flight.
  void Run();
  // Runs every event with when <= horizon, then advances each rack's
  // clock to the horizon (mirroring Simulation::RunUntil).
  void RunUntil(Time horizon);

  // --- Aggregate statistics (valid between runs) ---------------------------
  uint64_t events_processed() const;
  uint64_t frames_routed() const { return frames_routed_; }
  // Conservative windows executed (two barriers each with >1 worker).
  uint64_t windows() const { return windows_; }
  // Rack visits in the run phase: one per window for each rack with an
  // event before the window end.  Like windows(), deterministic and
  // invariant across shard and worker counts.
  uint64_t rack_runs() const { return rack_runs_; }

  // Per-rack trace digest — THE determinism invariant: byte-identical for
  // every (shards, workers) configuration of the same seeded scenario.
  uint64_t rack_digest(uint32_t rack) const {
    return racks_[rack]->sim().trace_digest();
  }
  // Order-sensitive fold of every rack digest (rack 0 first).
  uint64_t fleet_digest() const;

 private:
  friend class Rack;

  struct ShardState {
    // Rack indices owned by this shard: a contiguous stripe, so rack r
    // sits at position r - racks.front().
    std::vector<uint32_t> racks;
    // next_ns[i]: earliest pending event of racks[i] (ns; INT64_MAX when
    // idle), exact between phases.  Seeded by a peek once per run, then
    // refreshed only from the peek that ends each RunBefore and lowered
    // when the router schedules a frame into the rack.
    std::vector<int64_t> next_ns;
    // The window's inbound frames, gathered from every outbox(s, d) and
    // sorted canonically by the router.
    std::vector<CrossShardFrame> route_buf;
    // Minimum of next_ns, recomputed in the route phase.
    int64_t min_next = 0;
    uint64_t routed = 0;
    uint64_t rack_runs = 0;
  };

  std::vector<CrossShardFrame>& outbox(uint32_t src_shard,
                                       uint32_t dst_shard) {
    return outboxes_[src_shard * num_shards_ + dst_shard];
  }

  // Runs shard s's racks that have an event before the window end and
  // refreshes their next_ns entries.
  void RunPhase(uint32_t s);
  // Drains every outbox(s, d), sorts the frames canonically and schedules
  // them into their destination racks, then recomputes the shard's
  // min_next.
  void RoutePhase(uint32_t d);
  void RunWindows(int64_t limit_ns);
  void WorkerLoop(uint32_t worker);
  // Reduces shard min_next values into the next window (or sets done_).
  // With several workers it is barrier B's completion: it runs on exactly
  // one thread, with all route phases happened-before it and it
  // happened-before every unblock.
  void ComputeWindow();

  struct BarrierCompletion {
    ShardedFleet* fleet;
    void operator()() noexcept;
  };

  Duration lookahead_;
  uint32_t num_shards_ = 1;
  uint32_t num_workers_ = 1;
  FrameHandler handler_;
  std::vector<std::unique_ptr<Rack>> racks_;
  std::vector<ShardState> shards_;
  std::vector<std::vector<CrossShardFrame>> outboxes_;  // [src * S + dst]
  std::unique_ptr<WorkerPool> pool_;
  // Barrier A (run -> route) and barrier B (route -> next window); B's
  // completion computes the next window.  Rebuilt per run call, and only
  // built at all with more than one worker.
  std::unique_ptr<std::barrier<>> run_barrier_;
  std::unique_ptr<std::barrier<BarrierCompletion>> route_barrier_;
  int64_t limit_ns_ = 0;

  // Window state: written only by the barrier completion (one thread,
  // between phases), read by all workers after the barrier — the barrier
  // itself provides the happens-before edges.
  int64_t window_end_ns_ = 0;
  bool done_ = false;
  uint64_t windows_ = 0;
  uint64_t rack_runs_ = 0;
  uint64_t frames_routed_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_SHARD_H_
