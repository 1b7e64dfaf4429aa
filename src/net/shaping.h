// Traffic shaping against provider-level traffic analysis (§6).
//
// VLAN isolation hides tenant traffic from *other tenants*, and ESP hides
// payload *content* from the provider — but the provider still sees frame
// sizes and timing.  The paper notes a tenant "can ... shape their
// traffic to resist traffic analysis from the provider."  This module
// implements the classic constant-rate cell shaper: application messages
// are segmented into fixed-size cells, padded, and emitted on a fixed
// clock, with chaff cells filling idle slots, so the observable channel
// is a constant stream regardless of what (or whether) the application
// sends.  The price is padding overhead and queueing latency — quantified
// by bench/ablation_shaping.

#ifndef SRC_NET_SHAPING_H_
#define SRC_NET_SHAPING_H_

#include <cstdint>

#include "src/net/ipsec.h"
#include "src/net/network.h"
#include "src/sim/ring_queue.h"

namespace bolted::net {

struct ShapingPolicy {
  uint64_t cell_bytes = 16 * 1024;
  // Cells emitted per second; cell_bytes * cell_rate is the constant
  // observable bandwidth (and the goodput ceiling).
  double cells_per_second = 4000.0;
};

// Number of cells a payload occupies.
uint64_t CellsFor(const ShapingPolicy& policy, uint64_t payload_bytes);
// Wire bytes actually emitted for a payload (always whole cells).
uint64_t PaddedBytes(const ShapingPolicy& policy, uint64_t payload_bytes);
// Padding overhead factor (>= 1).
double PaddingOverhead(const ShapingPolicy& policy, uint64_t payload_bytes);
// Time for the shaper clock to drain a payload queued behind
// `backlog_cells` cells.
sim::Duration DrainTime(const ShapingPolicy& policy, uint64_t payload_bytes,
                        uint64_t backlog_cells);

// A shaped, ESP-protected unidirectional channel between two endpoints.
// Every emitted frame has exactly cell_bytes of ciphertext on the wire —
// data cells and chaff cells are indistinguishable to the provider.
class ShapedChannel {
 public:
  ShapedChannel(sim::Simulation& sim, Endpoint& source, Address destination,
                IpsecContext& ipsec, const ShapingPolicy& policy);

  // Queues an application message (must already be sealed if secrecy is
  // wanted beyond the per-cell ESP layer).
  void Submit(crypto::Bytes payload);

  // Runs the shaper clock for `slots` ticks, emitting one cell per tick —
  // a data cell when the queue is non-empty, a chaff cell otherwise.
  sim::Task RunClock(uint64_t slots);

  uint64_t data_cells_sent() const { return data_cells_; }
  uint64_t chaff_cells_sent() const { return chaff_cells_; }

 private:
  void EmitCell(crypto::ByteView plaintext_cell, bool chaff);

  sim::Simulation& sim_;
  Endpoint& source_;
  Address destination_;
  IpsecContext& ipsec_;
  ShapingPolicy policy_;
  // Segmented, padded cells.  A ring, not a deque: a busy shaper cycles
  // through its high-water capacity allocation-free (the same reasoning
  // as the Channel inboxes — see ring_queue.h).
  sim::RingQueue<crypto::Bytes> queue_;
  uint64_t data_cells_ = 0;
  uint64_t chaff_cells_ = 0;
  uint64_t chaff_counter_ = 0;
};

}  // namespace bolted::net

#endif  // SRC_NET_SHAPING_H_
