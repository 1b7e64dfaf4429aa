// The coroutine-per-frame switch forwarding path, kept as the semantic
// oracle for the production burst flight engine (src/net/network.cc,
// DESIGN.md §15).  Test-only: no target under src/ links it.
//
// Each frame is its own coroutine: it holds the sender's TX NIC, the
// uplinks and the receiver's RX NIC through the fluid model, sleeps the
// propagation latency, re-checks reachability, and delivers.  The burst
// engine must deliver and drop the same frames at the same instants, so
// Network::frame_digest(), the drop counters and any pcap capture come
// out identical on both paths.  The kernel (when, seq) digest does not:
// the two paths schedule different events.
//
// A parity test or bench runs one scenario twice — once through
// Endpoint::Post / Network::InjectFrame, once through these functions —
// and compares the results.

#ifndef TESTS_ORACLE_GENERIC_FORWARD_H_
#define TESTS_ORACLE_GENERIC_FORWARD_H_

#include "src/net/network.h"
#include "src/sim/task.h"

namespace bolted::oracle {

// Endpoint::Send on the generic path: completes once the frame has been
// delivered or dropped.
sim::Task Send(net::Endpoint& from, net::Address dst, net::Message message);
// Endpoint::Post on the generic path (fire-and-forget).
void Post(net::Endpoint& from, net::Address dst, net::Message message);
// Network::InjectFrame on the generic path: the same admission checks and
// return value, then the receiver-side NIC cost in a coroutine.
bool Inject(net::Network& network, net::Message message, net::VlanId tag);

}  // namespace bolted::oracle

#endif  // TESTS_ORACLE_GENERIC_FORWARD_H_
