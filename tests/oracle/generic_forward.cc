#include "tests/oracle/generic_forward.h"

#include <cstdint>
#include <utility>

#include "src/net/resource.h"
#include "src/obs/obs.h"

namespace bolted::net {

// Befriended by Endpoint and Network: the generic path reads and updates
// their per-port and fabric state exactly as the member coroutines it
// started out as did.
class GenericForward {
 public:
  static sim::Task SendBoxed(Endpoint& from, Address dst, MessageBox message);
  static void Post(Endpoint& from, Address dst, Message message);
  static bool Inject(Network& fabric, Message message, VlanId tag);

 private:
  static sim::Task InjectBoxed(Network& fabric, Endpoint* receiver,
                               MessageBox message, VlanId tag);
};

namespace {

// The frame-path metric names, interned here exactly as the burst engine
// interns them, so both paths feed the same registry entries.
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

}  // namespace

sim::Task GenericForward::SendBoxed(Endpoint& from, Address dst,
                                    MessageBox message) {
  Network& fabric = from.network_;
  message->src = from.address_;
  message->dst = dst;
  ++from.messages_sent_;
  // One static-guard check per frame, not one per metric operation.
  const NetMetricIds& ids = Ids();

  Endpoint* receiver = fabric.FindEndpoint(dst);
  const VlanId vlan =
      receiver == nullptr
          ? 0
          : VlanSet::LowestShared(from.vlans_, receiver->vlans_);
  if (vlan == 0 || !fabric.LinkUp(from.address_) || !fabric.LinkUp(dst)) {
    ++from.messages_dropped_;
    ++fabric.total_drops_;
    obs::CountById(from.sim_, ids.dropped_isolation);
    co_return;
  }

  // Fault injection at switch ingress: the frame can die here (before it
  // occupies the receiver's NIC), pick up extra delay, or be duplicated.
  FrameFault fault;
  if (fabric.fault_filter_) {
    fault = fabric.fault_filter_(*message);
    if (fault.drop) {
      ++from.messages_dropped_;
      ++fabric.total_drops_;
      ++fabric.fault_drops_;
      obs::CountById(from.sim_, ids.fault_dropped);
      co_return;
    }
    if (fault.extra_delay > sim::Duration::Zero()) {
      obs::CountById(from.sim_, ids.fault_delayed);
      obs::RecordDurationById(from.sim_, ids.fault_extra_delay,
                              fault.extra_delay);
    }
  }

  const double wire_bytes = static_cast<double>(message->EffectiveWireBytes());
  DemandList demands;
  demands.push_back(WeightedDemand{&from.tx_, wire_bytes});
  demands.push_back(WeightedDemand{&receiver->rx_, wire_bytes});
  // Cross-switch frames also traverse the top-of-rack uplinks.
  const int src_switch = fabric.SwitchOf(from.address_);
  const int dst_switch = fabric.SwitchOf(dst);
  if (src_switch != dst_switch) {
    if (src_switch != 0) {
      demands.push_back(WeightedDemand{&fabric.uplink(src_switch), wire_bytes});
    }
    if (dst_switch != 0) {
      demands.push_back(WeightedDemand{&fabric.uplink(dst_switch), wire_bytes});
    }
  }
  co_await ConsumeAllWeighted(from.sim_, std::move(demands));
  co_await sim::Delay(from.sim_,
                      fabric.propagation_latency() + fault.extra_delay);

  // Re-check reachability at delivery time: HIL may have moved ports (or a
  // link may have dropped) while the frame was in flight.
  if (VlanSet::LowestShared(from.vlans_, receiver->vlans_) == 0 ||
      !fabric.LinkUp(from.address_) || !fabric.LinkUp(dst)) {
    ++from.messages_dropped_;
    ++fabric.total_drops_;
    obs::CountById(from.sim_, ids.dropped_in_flight);
    co_return;
  }
#if BOLTED_OBS
  // Forwarded-frame accounting: totals, size distribution, and the
  // per-link byte counters interned when the ports were created.
  if (obs::Registry* r = from.sim_.observer()) {
    const auto bytes = message->EffectiveWireBytes();
    r->AddById(ids.forwarded, 1 + static_cast<uint64_t>(fault.duplicates));
    r->RecordById(ids.frame_bytes, bytes);
    r->AddById(from.tx_bytes_metric_, bytes);
    r->AddById(receiver->rx_bytes_metric_,
               bytes * (1 + static_cast<uint64_t>(fault.duplicates)));
  }
#endif
  // A duplicating switch delivers extra copies of the same frame; each copy
  // is provider-visible traffic, so the sniffer sees all of them.
  for (int copy = 0; copy < fault.duplicates; ++copy) {
    ++fabric.fault_duplicates_;
    obs::CountById(from.sim_, ids.fault_duplicated);
    fabric.RecordDelivery(&from, receiver, vlan, *message);
    if (fabric.sniffer_) {
      fabric.sniffer_(vlan, *message);
    }
    receiver->inbox_.Send(*message);
  }
  fabric.RecordDelivery(&from, receiver, vlan, *message);
  if (fabric.sniffer_) {
    fabric.sniffer_(vlan, *message);
  }
  receiver->inbox_.Send(std::move(*message));
}

void GenericForward::Post(Endpoint& from, Address dst, Message message) {
  from.sim_.Spawn(SendBoxed(from, dst, MessageBox(std::move(message))));
}

bool GenericForward::Inject(Network& fabric, Message message, VlanId tag) {
  Endpoint* receiver = fabric.FindEndpoint(message.dst);
  if (receiver == nullptr || tag == 0 || !receiver->InVlan(tag) ||
      !fabric.LinkUp(message.dst)) {
    ++fabric.total_drops_;
    obs::CountById(fabric.sim_, Ids().injected_dropped);
    return false;
  }
  // Boxed before the coroutine boundary for the same GCC 12 reason as
  // Endpoint::Send (see the note in src/net/network.h).
  fabric.sim_.Spawn(
      InjectBoxed(fabric, receiver, MessageBox(std::move(message)), tag));
  return true;
}

sim::Task GenericForward::InjectBoxed(Network& fabric, Endpoint* receiver,
                                      MessageBox message, VlanId tag) {
  const NetMetricIds& ids = Ids();
  const double wire_bytes = static_cast<double>(message->EffectiveWireBytes());
  DemandList demands;
  demands.push_back(WeightedDemand{&receiver->rx_, wire_bytes});
  co_await ConsumeAllWeighted(fabric.sim_, std::move(demands));
  // Delivery-time re-check, mirroring the in-flight drop rule of the
  // local send path: the port may have left the VLAN or lost its link
  // while the bytes were clearing the NIC.
  if (!receiver->InVlan(tag) || !fabric.LinkUp(receiver->address())) {
    ++fabric.total_drops_;
    obs::CountById(fabric.sim_, ids.dropped_in_flight);
    co_return;
  }
  ++fabric.injected_frames_;
  obs::CountById(fabric.sim_, ids.injected);
#if BOLTED_OBS
  if (obs::Registry* r = fabric.sim_.observer()) {
    const auto bytes = message->EffectiveWireBytes();
    r->AddById(ids.forwarded, 1);
    r->RecordById(ids.frame_bytes, bytes);
    r->AddById(receiver->rx_bytes_metric_, bytes);
  }
#endif
  fabric.RecordDelivery(nullptr, receiver, tag, *message);
  if (fabric.sniffer_) {
    fabric.sniffer_(tag, *message);
  }
  receiver->inbox_.Send(std::move(*message));
}

}  // namespace bolted::net

namespace bolted::oracle {

sim::Task Send(net::Endpoint& from, net::Address dst, net::Message message) {
  return net::GenericForward::SendBoxed(from, dst,
                                        net::MessageBox(std::move(message)));
}

void Post(net::Endpoint& from, net::Address dst, net::Message message) {
  net::GenericForward::Post(from, dst, std::move(message));
}

bool Inject(net::Network& network, net::Message message, net::VlanId tag) {
  return net::GenericForward::Inject(network, std::move(message), tag);
}

}  // namespace bolted::oracle
