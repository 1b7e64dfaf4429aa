#include "src/net/network.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/net/pcap.h"
#include "src/obs/obs.h"
#include "src/sim/random.h"

namespace bolted::net {
namespace {

// Fixed frame-path metric names, interned once per process so the send
// coroutine records through ids (no hashing, no string temporaries).
struct NetMetricIds {
  uint32_t dropped_isolation = obs::InternMetric("net.frames.dropped_isolation");
  uint32_t fault_dropped = obs::InternMetric("net.frames.fault_dropped");
  uint32_t fault_delayed = obs::InternMetric("net.frames.fault_delayed");
  uint32_t fault_extra_delay = obs::InternMetric("net.fault_extra_delay");
  uint32_t dropped_in_flight = obs::InternMetric("net.frames.dropped_in_flight");
  uint32_t forwarded = obs::InternMetric("net.frames.forwarded");
  uint32_t frame_bytes = obs::InternMetric("net.frame_bytes");
  uint32_t fault_duplicated = obs::InternMetric("net.frames.fault_duplicated");
  uint32_t injected = obs::InternMetric("net.frames.injected");
  uint32_t injected_dropped = obs::InternMetric("net.frames.injected_dropped");
};

const NetMetricIds& Ids() {
  static const NetMetricIds ids;
  return ids;
}

// Frame tags and the frame digest mix with splitmix64 for full avalanche.
using sim::SplitMix64;

// One step of a WordHash lane.  The fold after the multiply carries the
// high half down: without it, flipping bit 63 of x flips only bit 63 of
// x * kWordMul, so the same flip in a later word of the lane cancels it.
inline uint64_t WordStep(uint64_t h, uint64_t w) {
  constexpr uint64_t kWordMul = 0xff51afd7ed558ccdull;  // odd: a bijection
  h = (h ^ w) * kWordMul;
  return h ^ (h >> 32);
}

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

// Word-at-a-time hash of a byte string: little-endian 8-byte words go
// round-robin into four independent lanes (so no single multiply chain
// serializes the payload), and the tail is zero-padded into one more
// round.  The lanes then join through the same step, starting from the
// length.  Every step is a bijection of its lane and of the running
// value, so a change confined to one lane, or to the length alone,
// always changes the result.  FrameTag's SplitMix64 spreads it.
uint64_t WordHash(const uint8_t* p, size_t size) {
  uint64_t h0 = 0x776f726431ull;  // "word1".."word4"
  uint64_t h1 = 0x776f726432ull;
  uint64_t h2 = 0x776f726433ull;
  uint64_t h3 = 0x776f726434ull;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    h0 = WordStep(h0, LoadWord(p + i));
    h1 = WordStep(h1, LoadWord(p + i + 8));
    h2 = WordStep(h2, LoadWord(p + i + 16));
    h3 = WordStep(h3, LoadWord(p + i + 24));
  }
  if (i < size) {
    uint8_t tail[32] = {};
    std::memcpy(tail, p + i, size - i);
    h0 = WordStep(h0, LoadWord(tail));
    h1 = WordStep(h1, LoadWord(tail + 8));
    h2 = WordStep(h2, LoadWord(tail + 16));
    h3 = WordStep(h3, LoadWord(tail + 24));
  }
  uint64_t h = WordStep(size, h0);
  h = WordStep(h, h1);
  h = WordStep(h, h2);
  return WordStep(h, h3);
}

}  // namespace

uint64_t FrameTag(VlanId vlan, const Message& m) {
  uint64_t h = SplitMix64(0x6672616d65ull ^ m.src);  // "frame"
  h = SplitMix64(h ^ m.dst);
  h = SplitMix64(h ^ vlan);
  h = SplitMix64(h ^ m.EffectiveWireBytes());
  h = SplitMix64(h ^ WordHash(reinterpret_cast<const uint8_t*>(m.kind.data()),
                              m.kind.size()));
  h = SplitMix64(h ^ WordHash(m.payload.data(), m.payload.size()));
  h = SplitMix64(h ^ ((m.rpc_id << 1) | (m.rpc_response ? 1u : 0u)));
  return h;
}

Endpoint::Endpoint(sim::Simulation& sim, Network& network, Address address,
                   std::string name, double bandwidth_bytes_per_second)
    : sim_(sim),
      network_(network),
      address_(address),
      name_(std::move(name)),
      tx_(sim, bandwidth_bytes_per_second, name_ + ".tx"),
      rx_(sim, bandwidth_bytes_per_second, name_ + ".rx"),
      inbox_(sim),
      tx_bytes_metric_(obs::InternMetric("net.link." + name_ + ".tx_bytes")),
      rx_bytes_metric_(obs::InternMetric("net.link." + name_ + ".rx_bytes")) {}

// Plain (non-coroutine) shim: boxes the aggregate before the coroutine
// boundary — see the header note on the GCC 12 parameter-copy bug.  The
// box is pooled, so in the steady state this allocates nothing.
sim::Task Endpoint::Send(Address dst, Message message) {
  return SendBoxed(dst, MessageBox(std::move(message)));
}

// Awaited send: the synchronous flight engine does all the work; this
// frame only exists to signal the caller at the delivery (or drop)
// instant.  Lazily started like every Task, so StartFlight runs when the
// task is first awaited or spawned.
sim::Task Endpoint::SendBoxed(Address dst, MessageBox message) {
  sim::Event done(sim_);
  network_.StartFlight(this, dst, std::move(message), &done);
  co_await done;
}

void Network::SetLinkUp(Address endpoint, bool up) {
  if (endpoint >= link_down_.size()) {
    if (up) {
      return;  // unknown links default to up
    }
    link_down_.resize(endpoint + 1, 0);
  }
  link_down_[endpoint] = up ? 0 : 1;
  BumpTopologyEpoch();
}

void Endpoint::Post(Address dst, Message message) {
  // Fire-and-forget needs no coroutine at all: the flight engine runs
  // synchronously here.
  network_.StartFlight(this, dst, MessageBox(std::move(message)), nullptr);
}

Network::Network(sim::Simulation& sim, sim::Duration propagation_latency,
                 double default_bandwidth_bytes_per_second)
    : sim_(sim),
      latency_(propagation_latency),
      default_bandwidth_(default_bandwidth_bytes_per_second) {}

Endpoint& Network::CreateEndpoint(const std::string& name) {
  return CreateEndpoint(name, default_bandwidth_);
}

Endpoint& Network::CreateEndpoint(const std::string& name,
                                  double bandwidth_bytes_per_second) {
  const Address address = next_address_++;
  auto endpoint = std::make_unique<Endpoint>(sim_, *this, address, name,
                                             bandwidth_bytes_per_second);
  Endpoint& ref = *endpoint;
  endpoints_.emplace(address, std::move(endpoint));
  // emplace keeps the first binding, so duplicate names keep resolving to
  // the earliest-created endpoint (what the old linear scan returned).
  endpoints_by_name_.emplace(name, address);
  // Index slot `address` exactly (SetLinkUp may have grown link_down_ past
  // the created range already, so push_back would misalign).
  if (endpoint_index_.size() <= address) {
    endpoint_index_.resize(address + 1, nullptr);
    switch_index_.resize(address + 1, 0);
  }
  if (link_down_.size() <= address) {
    link_down_.resize(address + 1, 0);
  }
  endpoint_index_[address] = &ref;
  switch_index_[address] = 0;
  BumpTopologyEpoch();
  return ref;
}

Endpoint& Network::CreateEndpointOnSwitch(const std::string& name, int switch_id) {
  Endpoint& endpoint = CreateEndpoint(name);
  switch_index_[endpoint.address()] = switch_id;
  return endpoint;
}

int Network::AddSwitch(double uplink_bandwidth_bytes_per_second) {
  uplinks_.push_back(std::make_unique<SharedResource>(
      sim_, uplink_bandwidth_bytes_per_second,
      "uplink-" + std::to_string(uplinks_.size() + 1)));
  return static_cast<int>(uplinks_.size());
}

SharedResource& Network::uplink(int switch_id) {
  return *uplinks_.at(static_cast<size_t>(switch_id - 1));
}

void Network::AssignToSwitch(Address endpoint, int switch_id) {
  if (endpoint < switch_index_.size()) {
    switch_index_[endpoint] = switch_id;
    BumpTopologyEpoch();
  }
}

int Network::SwitchOf(Address endpoint) const {
  return endpoint < switch_index_.size() ? switch_index_[endpoint] : 0;
}

Endpoint* Network::FindEndpoint(Address address) {
  return address < endpoint_index_.size() ? endpoint_index_[address] : nullptr;
}

Endpoint* Network::FindByName(const std::string& name) {
  const auto it = endpoints_by_name_.find(name);
  return it == endpoints_by_name_.end() ? nullptr : FindEndpoint(it->second);
}

void Network::AttachToVlan(Address endpoint, VlanId vlan) {
  if (Endpoint* e = FindEndpoint(endpoint)) {
    e->vlans_.insert(vlan);
    BumpTopologyEpoch();  // VLAN membership change
  }
}

void Network::DetachFromVlan(Address endpoint, VlanId vlan) {
  if (Endpoint* e = FindEndpoint(endpoint)) {
    e->vlans_.erase(vlan);
    BumpTopologyEpoch();
  }
}

void Network::DetachFromAllVlans(Address endpoint) {
  if (Endpoint* e = FindEndpoint(endpoint)) {
    e->vlans_.clear();
    BumpTopologyEpoch();
  }
}

bool Network::InjectFrame(Message message, VlanId tag) {
  Endpoint* receiver = FindEndpoint(message.dst);
  if (receiver == nullptr || tag == 0 || !receiver->InVlan(tag) ||
      !LinkUp(message.dst)) {
    ++total_drops_;
    obs::CountById(sim_, Ids().injected_dropped);
    return false;
  }
  // Ingress rides the same flight engine as local frames, so merged
  // metrics (forwarded count, size histogram, per-link rx bytes), the
  // frame digest, and any pcap tap see a cross-shard hop exactly like a
  // local one.
  StartInjectFlight(receiver, MessageBox(std::move(message)), tag);
  return true;
}

// --- Burst fast path (DESIGN.md §15) ----------------------------------------

void Network::StartFlight(Endpoint* sender, Address dst, MessageBox box,
                          sim::Event* done) {
  Message& m = *box;
  m.src = sender->address_;
  m.dst = dst;
  ++sender->messages_sent_;
  const NetMetricIds& ids = Ids();

  // The send verdict, read from the dense topology arrays exactly as the
  // generic path reads it: both ports share a VLAN and both links are up.
  Endpoint* receiver = FindEndpoint(dst);
  const VlanId vlan =
      receiver == nullptr
          ? 0
          : VlanSet::LowestShared(sender->vlans_, receiver->vlans_);
  if (vlan == 0 || !LinkUp(sender->address_) || !LinkUp(dst)) {
    ++sender->messages_dropped_;
    ++total_drops_;
    obs::CountById(sim_, ids.dropped_isolation);
    if (done != nullptr) {
      done->Set();
    }
    return;
  }

  // Fault injection at switch ingress — same probe point (and thus the
  // same rng draw order) as the generic coroutine.
  FrameFault fault;
  if (fault_filter_) {
    fault = fault_filter_(m);
    if (fault.drop) {
      ++sender->messages_dropped_;
      ++total_drops_;
      ++fault_drops_;
      obs::CountById(sim_, ids.fault_dropped);
      if (done != nullptr) {
        done->Set();
      }
      return;
    }
    if (fault.extra_delay > sim::Duration::Zero()) {
      obs::CountById(sim_, ids.fault_delayed);
      obs::RecordDurationById(sim_, ids.fault_extra_delay, fault.extra_delay);
    }
  }

  Flight* flight = AcquireFlight();
  flight->box = std::move(box);
  flight->sender = sender;
  flight->receiver = receiver;
  flight->done = done;
  flight->extra_delay = fault.extra_delay;
  flight->vlan = vlan;
  flight->duplicates = static_cast<int16_t>(fault.duplicates);
  flight->injected = false;

  const double wire_bytes =
      static_cast<double>(flight->box->EffectiveWireBytes());
  SharedResource* demands[4];
  int count = 0;
  if (wire_bytes > 0) {
    // Same registration order as the generic path (tx, rx, then uplinks):
    // per-resource job seq numbers tie-break simultaneous completions.
    demands[count++] = &sender->tx_;
    demands[count++] = &receiver->rx_;
    const int src_switch = SwitchOf(sender->address_);
    const int dst_switch = SwitchOf(dst);
    if (src_switch != dst_switch) {
      if (src_switch != 0) {
        demands[count++] = uplinks_[src_switch - 1].get();
      }
      if (dst_switch != 0) {
        demands[count++] = uplinks_[dst_switch - 1].get();
      }
    }
  }
  flight->pending = static_cast<int16_t>(count);
  if (count == 0) {
    CompleteFlight(flight);
    return;
  }
  // `pending` is preset to the full demand count, so a sub-epsilon amount
  // completing synchronously inside ConsumeAsync cannot finish the flight
  // before every demand is registered.
  const uint64_t token = flight->pool_index;
  for (int i = 0; i < count; ++i) {
    demands[i]->ConsumeAsync(wire_bytes, this, token);
  }
}

void Network::StartInjectFlight(Endpoint* receiver, MessageBox box,
                                VlanId tag) {
  Flight* flight = AcquireFlight();
  flight->box = std::move(box);
  flight->sender = nullptr;
  flight->receiver = receiver;
  flight->done = nullptr;
  flight->extra_delay = sim::Duration::Zero();
  flight->vlan = tag;
  flight->duplicates = 0;
  flight->injected = true;

  const double wire_bytes =
      static_cast<double>(flight->box->EffectiveWireBytes());
  if (wire_bytes <= 0) {
    flight->pending = 0;
    CompleteFlight(flight);
    return;
  }
  flight->pending = 1;
  receiver->rx_.ConsumeAsync(wire_bytes, this, flight->pool_index);
}

Network::Flight* Network::AcquireFlight() {
  if (flight_free_.empty()) {
    flight_arena_.emplace_back();
    flight_arena_.back().pool_index =
        static_cast<uint32_t>(flight_arena_.size() - 1);
    return &flight_arena_.back();
  }
  const uint32_t index = flight_free_.back();
  flight_free_.pop_back();
  return &flight_arena_[index];
}

void Network::FinishFlight(Flight* flight) {
  if (flight->done != nullptr) {
    flight->done->Set();
    flight->done = nullptr;
  }
  // Hand the pooled message back; the arena slot is reusable immediately.
  { MessageBox discard(std::move(flight->box)); }
  flight_free_.push_back(flight->pool_index);
}

void Network::OnConsumeComplete(uint64_t token) {
  Flight* flight = &flight_arena_[static_cast<size_t>(token)];
  if (--flight->pending > 0) {
    return;  // another NIC/uplink demand is still draining
  }
  CompleteFlight(flight);
}

void Network::CompleteFlight(Flight* flight) {
  // Injected frames already paid their propagation as shard lookahead, so
  // they deliver at the completion instant, like the generic ingress path.
  const sim::Duration delay =
      flight->injected ? sim::Duration::Zero()
                       : latency_ + flight->extra_delay;
  if (delay <= sim::Duration::Zero()) {
    // Run-to-completion: the hop is due at this very instant — deliver
    // inline instead of a scheduler round-trip.
    BurstStats stats;
    stats.registry = sim_.observer();
    DeliverFlight(flight, stats);
    FlushBurstStats(stats);
    PumpReceivers();
    return;
  }
  if (flight->extra_delay > sim::Duration::Zero()) {
    // Fault-delayed frames get their own event: their dues are not
    // monotone with the delivery ring.
    sim_.Schedule(delay, [this, flight]() {
      BurstStats stats;
      stats.registry = sim_.observer();
      DeliverFlight(flight, stats);
      FlushBurstStats(stats);
      PumpReceivers();
    });
    return;
  }
  EnqueueDelivery(flight, sim_.now() + delay);
}

void Network::EnqueueDelivery(Flight* flight, sim::Time due) {
  delivery_ring_.push_back(DeliveryRecord{flight, due});
  if (!delivery_event_pending_) {
    delivery_event_pending_ = true;
    sim_.Schedule(due - sim_.now(), [this]() {
      delivery_event_pending_ = false;
      DrainDeliveries();
    });
  }
}

// Burst dispatch: one event drains every delivery due at this instant.
// The per-frame loop only copies the message into the inbox and updates
// the local stats struct; observer lookup, counter flushes, and receiver
// wake-ups are hoisted out of it.
void Network::DrainDeliveries() {
  const sim::Time now = sim_.now();
  BurstStats stats;
  stats.registry = sim_.observer();
  while (!delivery_ring_.empty() && delivery_ring_.front().due <= now) {
    Flight* flight = delivery_ring_.front().flight;
    delivery_ring_.pop_front();
    DeliverFlight(flight, stats);
  }
  FlushBurstStats(stats);
  PumpReceivers();
  if (!delivery_ring_.empty() && !delivery_event_pending_) {
    delivery_event_pending_ = true;
    sim_.Schedule(delivery_ring_.front().due - now, [this]() {
      delivery_event_pending_ = false;
      DrainDeliveries();
    });
  }
}

void Network::DeliverFlight(Flight* flight, BurstStats& stats) {
  Endpoint* receiver = flight->receiver;
  Message& m = *flight->box;
  // Delivery-time re-check, the generic path's test: HIL may have moved a
  // port between VLANs, or a link may have dropped, while the frame was in
  // flight.
  bool deliverable = LinkUp(receiver->address_);
  if (flight->injected) {
    deliverable = deliverable && receiver->InVlan(flight->vlan);
  } else {
    deliverable = deliverable && LinkUp(flight->sender->address_) &&
                  VlanSet::LowestShared(flight->sender->vlans_,
                                        receiver->vlans_) != 0;
  }
  if (!deliverable) {
    ++total_drops_;
    if (!flight->injected) {
      ++flight->sender->messages_dropped_;
    }
    obs::CountById(sim_, Ids().dropped_in_flight);
    FinishFlight(flight);
    return;
  }

  const uint64_t bytes = m.EffectiveWireBytes();
  const auto copies = static_cast<uint64_t>(1 + flight->duplicates);
  if (flight->injected) {
    ++injected_frames_;
    ++stats.injected;
    ++stats.forwarded;
  } else {
    stats.forwarded += copies;
    stats.duplicated += static_cast<uint64_t>(flight->duplicates);
    fault_duplicates_ += static_cast<uint64_t>(flight->duplicates);
  }
  if (stats.registry != nullptr) {
    stats.registry->RecordById(Ids().frame_bytes, bytes);
    if (!flight->injected) {
      // Per-link byte totals accumulate run-length: consecutive frames on
      // the same link (the common burst shape) flush once.
      if (stats.tx_id != flight->sender->tx_bytes_metric_) {
        if (stats.tx_bytes != 0) {
          stats.registry->AddById(stats.tx_id, stats.tx_bytes);
        }
        stats.tx_id = flight->sender->tx_bytes_metric_;
        stats.tx_bytes = 0;
      }
      stats.tx_bytes += bytes;
    }
    if (stats.rx_id != receiver->rx_bytes_metric_) {
      if (stats.rx_bytes != 0) {
        stats.registry->AddById(stats.rx_id, stats.rx_bytes);
      }
      stats.rx_id = receiver->rx_bytes_metric_;
      stats.rx_bytes = 0;
    }
    stats.rx_bytes += bytes * copies;
  }

  for (int16_t copy = 0; copy < flight->duplicates; ++copy) {
    RecordDelivery(flight->sender, receiver, flight->vlan, m);
    if (sniffer_) {
      sniffer_(flight->vlan, m);
    }
    receiver->inbox_.Enqueue(m);
  }
  RecordDelivery(flight->sender, receiver, flight->vlan, m);
  if (sniffer_) {
    sniffer_(flight->vlan, m);
  }
  receiver->inbox_.Enqueue(std::move(m));
  QueueForPump(receiver);
  FinishFlight(flight);
}

void Network::FlushBurstStats(BurstStats& stats) {
  if (stats.registry == nullptr) {
    return;
  }
  const NetMetricIds& ids = Ids();
  if (stats.forwarded != 0) {
    stats.registry->AddById(ids.forwarded, stats.forwarded);
  }
  if (stats.duplicated != 0) {
    stats.registry->AddById(ids.fault_duplicated, stats.duplicated);
  }
  if (stats.injected != 0) {
    stats.registry->AddById(ids.injected, stats.injected);
  }
  if (stats.tx_bytes != 0) {
    stats.registry->AddById(stats.tx_id, stats.tx_bytes);
  }
  if (stats.rx_bytes != 0) {
    stats.registry->AddById(stats.rx_id, stats.rx_bytes);
  }
}

void Network::QueueForPump(Endpoint* receiver) {
  if (!receiver->queued_for_pump_) {
    receiver->queued_for_pump_ = true;
    pump_list_.push_back(receiver);
  }
}

// Phase 2 of a burst: resume inbox waiters, inline.  The reentrancy guard
// turns what would be recursion (a resumed receiver Posts a zero-latency
// frame, whose inline delivery queues another receiver, ...) into
// iteration over the growing pump list, so stack depth stays constant no
// matter how long a same-instant chain runs.
void Network::PumpReceivers() {
  if (pumping_) {
    return;
  }
  pumping_ = true;
  for (size_t i = 0; i < pump_list_.size(); ++i) {
    Endpoint* receiver = pump_list_[i];
    receiver->queued_for_pump_ = false;
    receiver->inbox_.PumpWaiters();
  }
  pump_list_.clear();
  pumping_ = false;
}

void Network::RecordDelivery(Endpoint* sender, Endpoint* receiver,
                             VlanId vlan, const Message& message) {
  ++frames_delivered_;
  FoldFrameDigest(vlan, message);
  PcapWriter* sender_tap = sender != nullptr ? sender->pcap_tap_ : nullptr;
  if (sender_tap != nullptr) {
    sender_tap->WriteFrame(sim_.now(), vlan, message);
  }
  if (receiver->pcap_tap_ != nullptr && receiver->pcap_tap_ != sender_tap) {
    receiver->pcap_tap_->WriteFrame(sim_.now(), vlan, message);
  }
}

void Network::FoldFrameDigest(VlanId vlan, const Message& message) {
  const sim::Time now = sim_.now();
  if (now != frame_digest_instant_) {
    SealFrameInstant();
    frame_digest_instant_ = now;
  }
  frame_digest_acc_ += FrameTag(vlan, message);
  ++frame_digest_count_;
}

void Network::SealFrameInstant() {
  if (frame_digest_count_ == 0) {
    return;
  }
  uint64_t h = frame_digest_rolling_;
  h = SplitMix64(
      h ^ static_cast<uint64_t>(frame_digest_instant_.nanoseconds()));
  h = SplitMix64(h ^ frame_digest_acc_);
  h = SplitMix64(h ^ frame_digest_count_);
  frame_digest_rolling_ = h;
  frame_digest_acc_ = 0;
  frame_digest_count_ = 0;
}

uint64_t Network::frame_digest() const {
  uint64_t h = frame_digest_rolling_;
  if (frame_digest_count_ != 0) {
    h = SplitMix64(
        h ^ static_cast<uint64_t>(frame_digest_instant_.nanoseconds()));
    h = SplitMix64(h ^ frame_digest_acc_);
    h = SplitMix64(h ^ frame_digest_count_);
  }
  return h;
}

void Network::AttachPcapTap(Address endpoint, PcapWriter* writer) {
  if (Endpoint* e = FindEndpoint(endpoint)) {
    e->pcap_tap_ = writer;
  }
}

bool Network::Reachable(Address a, Address b) const {
  return SharedVlan(a, b) != 0;
}

VlanId Network::SharedVlan(Address a, Address b) const {
  if (a >= endpoint_index_.size() || b >= endpoint_index_.size() ||
      endpoint_index_[a] == nullptr || endpoint_index_[b] == nullptr) {
    return 0;
  }
  return VlanSet::LowestShared(endpoint_index_[a]->vlans(),
                               endpoint_index_[b]->vlans());
}

}  // namespace bolted::net
