// Rack-sharded parallel simulation with conservative time synchronization
// (DESIGN.md §12).
//
// The fabric is partitioned into racks; each rack owns a full Simulation
// (its own 11×64 timing wheel, seq counter, Rng stream, and trace digest),
// so the unit of determinism is the rack, not the thread.  Racks are
// grouped into shards — the transport topology — and each window runs its
// busy shards on the calling thread and a pool of pinned worker threads.
// Because every rack's event stream is a pure function of (seed,
// scenario, routed cross-rack frames), the per-rack trace digests are
// byte-identical for every shard count and every worker count: the
// shards=1, workers=1 configuration is the single-threaded oracle the
// chaos sweep replays against.
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
// event before window_end.  After the run phase the router drains every
// shard-pair mailbox, sorts each destination rack's inbound frames into
// the canonical (deliver_ns, src_rack, src_seq) order, and schedules
// them; destination-side seq assignment is therefore identical no matter
// which shard or thread produced the frames.
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
// clears them.  Each phase is a fork-join over the shards with work: the
// run phase's join orders every append of a window before the drain that
// reads it, and the route phase's join orders that drain before the next
// window's appends, so a mailbox has one writer phase and one reader
// phase and needs no atomics.  A mailbox grows instead of refusing a
// frame: a simulation may never drop or block.
//
// Thread discipline: within a phase, a shard and its racks are touched by
// exactly one thread, and the phases are separated by joins, so rack
// Simulations need no locks.  Which thread that is may change from window
// to window; it never enters a digest.  The same rule gives each outbox
// row one writer (the thread running the source shard, in the run phase)
// and each outbox column one reader (the thread routing the destination
// shard).  A window whose work sits in one shard runs on the caller and
// crosses no thread.  The frame handler is invoked on the thread running
// the destination rack's shard and must confine itself to the rack passed
// to it.  Within a run, a rack's queue therefore changes only through its
// own events and through routing, which is what keeps the next-event
// cache exact.  Between runs application code may schedule, cancel, or
// Rack::Send freely: each run first re-reads every rack's next-event time,
// then routes the frames still in transit.

#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

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
  // Threads that run a window's busy shards, the caller included.  0
  // means one per shard.  Clamped to shards and to the host's cores.
  uint32_t workers = 0;
  // Conservative lookahead: the minimum cross-rack delivery delay.  Every
  // Rack::Send delay must be >= lookahead (checked fatally).
  Duration lookahead = Duration::Microseconds(50);
  uint64_t seed = 0x626f6c746564u;
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
  // Invoked when a frame's delivery instant fires in the destination
  // rack's event stream, on the thread running that rack's shard in that
  // window.  Must be safe to call concurrently for *different* racks
  // (capture immutable config; mutate only through the Rack argument and
  // per-rack state).
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

  // Runs until every rack's queue drains and no frame is in flight.  An
  // exception from a rack's event, a spawned task's failure that its
  // Simulation rethrows included, leaves Run() at every worker count once
  // the phase's other shards have finished; if several shards threw, the
  // lowest one's exception wins, as it would on one thread.
  void Run();
  // Runs every event with when <= horizon, then advances each rack's
  // clock to the horizon (mirroring Simulation::RunUntil).
  void RunUntil(Time horizon);

  // --- Aggregate statistics (valid between runs) ---------------------------
  uint64_t events_processed() const;
  uint64_t frames_routed() const { return frames_routed_; }
  // Conservative windows executed.
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
    // Minimum of next_ns: seeded with the cache, recomputed by each run
    // phase and lowered by each routed frame.
    int64_t min_next = 0;
    uint64_t routed = 0;
    uint64_t rack_runs = 0;
  };

  std::vector<CrossShardFrame>& outbox(uint32_t src_shard,
                                       uint32_t dst_shard) {
    return outboxes_[src_shard * num_shards_ + dst_shard];
  }

  // Runs shard s's racks that have an event before the window end and
  // refreshes their next_ns entries and the shard's min_next.
  void RunPhase(uint32_t s);
  // Drains every outbox(s, d), sorts the frames canonically and schedules
  // them into their destination racks, lowering next_ns and min_next.
  void RoutePhase(uint32_t d);
  // Runs phase(s) for every shard s with busy(s) and returns once all of
  // them finished.  The caller runs the lowest itself and the pool the
  // rest; with no pool, or one busy shard, all run on the caller.
  template <typename Busy>
  void ForkJoin(void (ShardedFleet::*phase)(uint32_t), const Busy& busy);
  void RunWindows(int64_t limit_ns);
  // Reduces shard min_next values into the next window; false once every
  // rack is idle up to the limit.
  bool ComputeWindow();

  Duration lookahead_;
  uint32_t num_shards_ = 1;
  FrameHandler handler_;
  std::vector<std::unique_ptr<Rack>> racks_;
  std::vector<ShardState> shards_;
  std::vector<std::vector<CrossShardFrame>> outboxes_;  // [src * S + dst]
  std::unique_ptr<WorkerPool> pool_;  // null with one worker
  std::vector<uint32_t> busy_;       // the shards of the current phase
  std::vector<WorkerPool::Ticket> tickets_;
  int64_t limit_ns_ = 0;

  // Window state: written only by the caller between joins and read by
  // the phase tasks, which Submit's queue lock orders after the write.
  int64_t window_end_ns_ = 0;
  uint64_t windows_ = 0;
  uint64_t rack_runs_ = 0;
  uint64_t frames_routed_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_SHARD_H_
