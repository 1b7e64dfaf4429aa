// Simulated L2 network with 802.1Q-style VLAN isolation.
//
// This models the provider's switching infrastructure that HIL drives
// (§5): endpoints (server NICs and service NICs) attach to switch ports;
// each port belongs to a set of VLANs; a frame is deliverable only when
// the source and destination ports share a VLAN.  Isolation is therefore
// structural — exactly the property the Hardware Isolation Layer
// manipulates to build enclaves, airlocks, and the rejected pool.
//
// Control-plane messages carry real bytes.  Delivery consumes the sender's
// TX and the receiver's RX NIC resources (fluid model), so concurrent
// traffic contends naturally.  A provider-level sniffer hook sees every
// delivered frame — used by tests and examples to demonstrate that only
// encryption (not VLANs) protects payloads from the provider itself.
//
// Frames move through one forwarding path, the burst flight engine
// (DESIGN.md §15): per-frame send and delivery verdicts read from the
// dense topology arrays, callback-completed NIC demands, and ring-batched
// delivery with run-to-completion for same-instant hops.  The frame-digest parity tests replay traffic on the
// original coroutine-per-frame path, a test-only oracle that reaches the
// per-port and fabric state below through `friend class GenericForward`.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/bytes.h"
#include "src/net/message_pool.h"
#include "src/net/resource.h"
#include "src/sim/ring_queue.h"
#include "src/sim/simulation.h"
#include "src/sim/small_vec.h"
#include "src/sim/task.h"

namespace bolted::net {

class Network;
class PcapWriter;

// The tag one delivered frame folds into Network::frame_digest(): src,
// dst, vlan, wire bytes, kind, payload and rpc header.  Kind and payload
// go through a four-lane word-at-a-time hash (DESIGN.md §15).
uint64_t FrameTag(VlanId vlan, const Message& m);

// Switch-port VLAN membership as a bitset.  The per-frame reachability
// check (SharedVlan on the send and delivery paths) is a word-AND scan
// with an early exit — no tree walk, no per-frame allocation — and
// VLAN 0 keeps its "no VLAN" meaning because a zero result already means
// "none" to every caller.
class VlanSet {
 public:
  bool contains(VlanId vlan) const {
    const size_t word = vlan >> 6;
    return word < words_.size() && ((words_[word] >> (vlan & 63)) & 1) != 0;
  }
  void insert(VlanId vlan) {
    const size_t word = vlan >> 6;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    const uint64_t bit = uint64_t{1} << (vlan & 63);
    count_ += static_cast<size_t>((words_[word] & bit) == 0);
    words_[word] |= bit;
  }
  void erase(VlanId vlan) {
    const size_t word = vlan >> 6;
    if (word >= words_.size()) {
      return;
    }
    const uint64_t bit = uint64_t{1} << (vlan & 63);
    count_ -= static_cast<size_t>((words_[word] & bit) != 0);
    words_[word] &= ~bit;
  }
  void clear() {
    words_.clear();
    count_ = 0;
  }
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  // The lowest VLAN present in both sets, or 0 when the sets are disjoint.
  // The word array of each set only spans up to its highest member (HIL
  // hands out ids monotonically, so a typical endpoint needs one or two
  // words), and the scan stops at the shorter of the two.
  static VlanId LowestShared(const VlanSet& a, const VlanSet& b) {
    const size_t words = std::min(a.words_.size(), b.words_.size());
    for (size_t i = 0; i < words; ++i) {
      const uint64_t both = a.words_[i] & b.words_[i];
      if (both != 0) {
        return static_cast<VlanId>(i * 64 +
                                   static_cast<size_t>(std::countr_zero(both)));
      }
    }
    return 0;
  }

 private:
  // Bitset over VLAN ids, grown a 64-id word at a time up to the id
  // domain (VlanId is 16 bits, so at most 1024 words).
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

// Per-frame verdict from an installed fault filter (see
// Network::SetFaultFilter).  Defaults model a healthy fabric.
struct FrameFault {
  bool drop = false;              // frame dies in the switch
  int duplicates = 0;             // extra copies delivered after the original
  sim::Duration extra_delay{};    // added to propagation latency
};

// A NIC attached to a switch port.  Endpoint lifetime is managed by the
// Network.
class Endpoint {
 public:
  Endpoint(sim::Simulation& sim, Network& network, Address address, std::string name,
           double bandwidth_bytes_per_second);

  Address address() const { return address_; }
  const std::string& name() const { return name_; }

  // VLAN membership of this endpoint's switch port.
  const VlanSet& vlans() const { return vlans_; }
  bool InVlan(VlanId vlan) const { return vlans_.contains(vlan); }

  SharedResource& tx() { return tx_; }
  SharedResource& rx() { return rx_; }

  // Incoming messages, in delivery order.
  sim::Channel<Message>& inbox() { return inbox_; }

  // Sends a message, suspending until the bytes clear both NICs.  Returns
  // without delivering (silently dropped, counter bumped) when no shared
  // VLAN exists — i.e. isolation is enforced here.
  //
  // Implementation note: Message is an aggregate, and GCC 12 miscompiles
  // by-value aggregate parameters of coroutines (the frame copy is a
  // bitwise copy, aliasing the caller's SSO string buffers).  Send is
  // therefore a plain function that boxes the message — into a pooled
  // MessageBox, so the steady-state frame path is allocation-free —
  // before entering the coroutine (SendBoxed).
  sim::Task Send(Address dst, Message message);
  // Fire-and-forget variant.
  void Post(Address dst, Message message);

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  friend class Network;
  // RpcNode forwards already-boxed requests straight to SendBoxed, so a
  // call doesn't re-box per hop.
  friend class RpcNode;
  // The coroutine-per-frame forwarding oracle (see the file comment).
  friend class GenericForward;

  sim::Task SendBoxed(Address dst, MessageBox message);

  sim::Simulation& sim_;
  Network& network_;
  Address address_;
  std::string name_;
  VlanSet vlans_;
  SharedResource tx_;
  SharedResource rx_;
  sim::Channel<Message> inbox_;
  // Interned per-link byte-counter ids ("net.link.<name>.{tx,rx}_bytes"),
  // resolved once at attach time so the per-frame accounting in SendBoxed
  // never concatenates or hashes metric names.
  uint32_t tx_bytes_metric_;
  uint32_t rx_bytes_metric_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  // Optional wire-level tap (src/net/pcap.h): every frame delivered to or
  // sent from this port is appended to the capture.
  PcapWriter* pcap_tap_ = nullptr;
  // Burst-delivery bookkeeping: true while this endpoint sits in the
  // network's pump list awaiting its post-burst inbox pump.
  bool queued_for_pump_ = false;
};

class Network : public ConsumeSink {
 public:
  // Called for every delivered frame (provider-visible traffic).
  using Sniffer = std::function<void(VlanId, const Message&)>;
  // Fault-injection hook (installed by bolted::faults): consulted once per
  // frame that passed the VLAN check at send time.  Must be deterministic
  // for a given seed — it runs inside the simulated event stream.
  using FaultFilter = std::function<FrameFault(const Message&)>;

  Network(sim::Simulation& sim, sim::Duration propagation_latency,
          double default_bandwidth_bytes_per_second);

  // --- Topology -----------------------------------------------------------
  // By default all ports share one switch.  AddSwitch() grows a star
  // topology: each top-of-rack switch has an uplink of the given
  // bandwidth to the core, and frames between ports on different
  // switches consume both uplinks — the classic oversubscription
  // bottleneck HIL's VLANs stretch across.
  //
  // Switch 0 always exists.  Returns the new switch id.
  int AddSwitch(double uplink_bandwidth_bytes_per_second);
  int num_switches() const { return static_cast<int>(uplinks_.size()) + 1; }
  // Uplink resource of a top-of-rack switch (1-based; switch 0 is the
  // core and has none).
  SharedResource& uplink(int switch_id);

  // Creates an endpoint attached to a fresh switch port with no VLANs.
  Endpoint& CreateEndpoint(const std::string& name);
  Endpoint& CreateEndpoint(const std::string& name, double bandwidth_bytes_per_second);
  Endpoint& CreateEndpointOnSwitch(const std::string& name, int switch_id);
  // Moves an existing port to another switch (provider recabling).
  void AssignToSwitch(Address endpoint, int switch_id);
  int SwitchOf(Address endpoint) const;

  Endpoint* FindEndpoint(Address address);
  // Name lookup through an index maintained by CreateEndpoint — O(log n),
  // not a scan.  Duplicate names resolve to the earliest-created endpoint,
  // matching the original linear search.
  Endpoint* FindByName(const std::string& name);

  // Switch-port VLAN management (privileged: used by HIL only).
  void AttachToVlan(Address endpoint, VlanId vlan);
  void DetachFromVlan(Address endpoint, VlanId vlan);
  void DetachFromAllVlans(Address endpoint);

  // True when the two ports share at least one VLAN.
  bool Reachable(Address a, Address b) const;
  // The lowest shared VLAN (frames are tagged with it), or 0.
  VlanId SharedVlan(Address a, Address b) const;

  void SetSniffer(Sniffer sniffer) { sniffer_ = std::move(sniffer); }
  void SetFaultFilter(FaultFilter filter) { fault_filter_ = std::move(filter); }

  // Monotone counter bumped by every topology mutation (VLAN membership,
  // port moves, link state, endpoint creation).  Benchmarks read it as a
  // count of reconfigurations; no forwarding decision depends on it.
  uint64_t topology_epoch() const { return topology_epoch_; }

  // Rolling digest over delivered frames: each delivery folds a tag of
  // (src, dst, vlan, wire bytes, kind, payload, rpc header).  Tags are
  // accumulated commutatively *within* a sim-time instant and the instant
  // totals are chained in time order, so the digest pins the delivered
  // multiset per instant while staying independent of intra-instant
  // micro-ordering — by construction it is byte-identical between the
  // burst engine and the coroutine-per-frame oracle, and across shard
  // counts.
  uint64_t frame_digest() const;
  // Delivered frame copies (duplicates from fault injection included).
  uint64_t frames_delivered() const { return frames_delivered_; }

  // --- Wire-level capture (src/net/pcap.h) --------------------------------
  // Attaches a pcap tap to a port: every frame the port sends or receives
  // is appended to the capture in delivery order with sim-time
  // timestamps.  The writer is borrowed, not owned: keep it alive while
  // the network can deliver frames.  One frame is written once even when
  // both its ports share a writer.
  void AttachPcapTap(Address endpoint, PcapWriter* writer);

  // Uplink ingress: delivers a frame that originated on a remote fabric
  // partition (the sharded runtime, src/sim/shard.h) into this network.
  // The frame already paid its inter-rack latency as shard lookahead, so
  // ingress pays only the receiver-side costs: rx NIC occupancy, the
  // link-state check, and membership of the destination port in the
  // frame's VLAN tag.  message.dst must be set; message.src is preserved
  // (it names a port on the remote partition).  Returns false — dropped
  // and counted — when the port is unknown, down, or not in `tag`.
  bool InjectFrame(Message message, VlanId tag);
  uint64_t injected_frames() const { return injected_frames_; }

  // Administrative link state (fault injection / maintenance).  A downed
  // port neither sends nor receives; frames in flight when a link drops
  // are lost at delivery time.  Links start up.
  void SetLinkUp(Address endpoint, bool up);
  bool LinkUp(Address endpoint) const {
    return endpoint >= link_down_.size() || link_down_[endpoint] == 0;
  }

  sim::Duration propagation_latency() const { return latency_; }
  sim::Simulation& simulation() { return sim_; }
  uint64_t total_drops() const { return total_drops_; }
  // Frames killed or cloned by the installed fault filter / link state.
  uint64_t fault_drops() const { return fault_drops_; }
  uint64_t fault_duplicates() const { return fault_duplicates_; }

 private:
  friend class Endpoint;
  friend class GenericForward;  // see the file comment

  // --- Burst fast path (DESIGN.md §15) ------------------------------------
  // One in-flight frame.  Flights live in a stable-address arena with a
  // freelist, so the steady-state path performs no allocation; `pending`
  // counts outstanding NIC/uplink demands and the flight completes when
  // the last ConsumeAsync callback lands.
  struct Flight {
    MessageBox box;
    Endpoint* sender = nullptr;  // nullptr for injected (cross-shard) frames
    Endpoint* receiver = nullptr;
    sim::Event* done = nullptr;  // completion signal for awaited sends
    sim::Duration extra_delay{};
    uint32_t pool_index = 0;
    VlanId vlan = 0;
    int16_t pending = 0;
    int16_t duplicates = 0;
    bool injected = false;
  };
  struct DeliveryRecord {
    Flight* flight;
    sim::Time due;
  };
  // Per-burst accumulator: interned-counter updates and per-link byte
  // totals are batched here and flushed once per burst (run-length
  // accumulation over consecutive deliveries on the same link).
  struct BurstStats {
    obs::Registry* registry = nullptr;
    uint64_t forwarded = 0;
    uint64_t duplicated = 0;
    uint64_t injected = 0;
    uint32_t tx_id = 0;
    uint64_t tx_bytes = 0;
    uint32_t rx_id = 0;
    uint64_t rx_bytes = 0;
  };

  void StartFlight(Endpoint* sender, Address dst, MessageBox box,
                   sim::Event* done);
  void StartInjectFlight(Endpoint* receiver, MessageBox box, VlanId tag);
  Flight* AcquireFlight();
  void FinishFlight(Flight* flight);
  void OnConsumeComplete(uint64_t token) override;
  void CompleteFlight(Flight* flight);
  void EnqueueDelivery(Flight* flight, sim::Time due);
  void DrainDeliveries();
  void DeliverFlight(Flight* flight, BurstStats& stats);
  void FlushBurstStats(BurstStats& stats);
  void QueueForPump(Endpoint* receiver);
  void PumpReceivers();
  // Per-delivered-copy bookkeeping, shared with the generic-path oracle:
  // frame digest, delivered counter, and the pcap taps of the two ports.
  void RecordDelivery(Endpoint* sender, Endpoint* receiver, VlanId vlan,
                      const Message& message);
  void FoldFrameDigest(VlanId vlan, const Message& message);
  void SealFrameInstant();
  void BumpTopologyEpoch() { ++topology_epoch_; }

  sim::Simulation& sim_;
  sim::Duration latency_;
  double default_bandwidth_;
  Address next_address_ = 1;
  std::map<Address, std::unique_ptr<Endpoint>> endpoints_;
  // Addresses are handed out densely from 1, so the per-frame lookups
  // (endpoint, switch, link state — two of each per frame) are flat array
  // indexing instead of tree walks.  Index = address; slot 0 unused.
  std::vector<Endpoint*> endpoint_index_{nullptr};
  std::vector<int> switch_index_{0};
  std::vector<uint8_t> link_down_{0};
  // Name -> address index for FindByName; heterogeneous compare so a
  // string_view lookup needs no temporary.
  std::map<std::string, Address, std::less<>> endpoints_by_name_;
  std::vector<std::unique_ptr<SharedResource>> uplinks_;  // switch 1..N
  Sniffer sniffer_;
  FaultFilter fault_filter_;
  uint64_t total_drops_ = 0;
  uint64_t fault_drops_ = 0;
  uint64_t fault_duplicates_ = 0;
  uint64_t injected_frames_ = 0;

  uint64_t topology_epoch_ = 1;

  // --- Burst fast-path state ---------------------------------------------
  std::deque<Flight> flight_arena_;  // stable addresses; index = pool_index
  std::vector<uint32_t> flight_free_;
  // Pending deliveries in due order (dues are monotone: every ring entry
  // is completion-time + the network's fixed latency; fault-delayed
  // frames bypass the ring with their own event).  One scheduled event
  // covers the ring head; firing it drains the whole same-instant batch.
  sim::RingQueue<DeliveryRecord> delivery_ring_;
  bool delivery_event_pending_ = false;
  // Receivers touched by the current burst, pumped (inbox waiters resumed
  // inline) after every frame of the instant has been enqueued.
  sim::SmallVec<Endpoint*, 16> pump_list_;
  bool pumping_ = false;

  // --- Frame trace digest -------------------------------------------------
  uint64_t frames_delivered_ = 0;
  uint64_t frame_digest_rolling_ = 0x626f6c746564u;  // "bolted"
  sim::Time frame_digest_instant_{};
  uint64_t frame_digest_acc_ = 0;
  uint64_t frame_digest_count_ = 0;
};

}  // namespace bolted::net

#endif  // SRC_NET_NETWORK_H_
