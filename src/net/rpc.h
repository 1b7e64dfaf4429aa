// Request/response messaging over the simulated network.
//
// Every Bolted service (HIL, BMI, Keylime registrar/verifier, the iSCSI
// target) is an RpcNode: a dispatcher coroutine drains the endpoint inbox,
// routes responses to pending calls, and spawns a handler per request.
// Calls time out rather than hang when isolation (VLAN moves) silently
// drops traffic — which is exactly what happens to a server stuck in the
// airlock or the rejected pool.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace bolted::net {

// Failure-handling policy for CallWithRetry.  Attempt n (1-based) that
// times out waits min(backoff_cap, backoff_base * 2^(n-1)), scaled by a
// uniform factor in [1 - jitter, 1], before retrying.  Jitter draws from
// the simulation Rng, so retry schedules stay seed-deterministic.
struct CallOptions {
  sim::Duration timeout = sim::Duration::Seconds(30);
  int max_attempts = 1;
  sim::Duration backoff_base = sim::Duration::Milliseconds(250);
  sim::Duration backoff_cap = sim::Duration::Seconds(8);
  double jitter = 0.5;
};

class RpcNode {
 public:
  // Handlers fill in *response (kind/payload/wire_bytes); correlation
  // fields are managed by the node.
  using Handler = std::function<sim::Task(const Message& request, Message* response)>;

  RpcNode(sim::Simulation& sim, Endpoint& endpoint);

  Endpoint& endpoint() { return endpoint_; }
  Address address() const { return endpoint_.address(); }

  void RegisterHandler(const std::string& kind, Handler handler);

  // Spawns the dispatcher; call once after registering handlers.
  void Start();

  // Issues a call; *ok is false on timeout (e.g. the peer is unreachable
  // after an isolation change).  Plain shim over CallBoxed (see
  // Endpoint::Send for the GCC 12 aggregate-parameter note).
  sim::Task Call(Address dst, Message request, Message* response, bool* ok,
                 sim::Duration timeout = sim::Duration::Seconds(30));

  // Call with timeout-and-retry under the given policy.  Each attempt
  // resends a fresh copy of the request (handlers must be idempotent — all
  // Bolted control-plane handlers are); *ok is false only after every
  // attempt timed out.
  sim::Task CallWithRetry(Address dst, Message request, Message* response,
                          bool* ok, CallOptions options);

 private:
  struct PendingCall {
    // Points at the completion event in CallBoxed's coroutine frame; valid
    // until that frame resumes, which is always after Set() (resumption
    // goes through the event queue).
    sim::Event* done = nullptr;
    Message* response = nullptr;
    bool* ok = nullptr;
  };

  sim::Task Dispatch();
  sim::Task HandleRequest(MessageBox request);
  sim::Task CallBoxed(Address dst, MessageBox request, Message* response,
                      bool* ok, sim::Duration timeout);
  sim::Task CallWithRetryBoxed(Address dst, MessageBox request,
                               Message* response, bool* ok, CallOptions options);
  // Interned id of "rpc.call_ns.<kind>", cached per node so traced calls
  // don't rebuild (or rehash) the concatenated metric name.
  uint32_t CallDurationMetric(const std::string& kind);

  sim::Simulation& sim_;
  Endpoint& endpoint_;
  std::map<std::string, Handler> handlers_;
  std::map<uint64_t, PendingCall> pending_;
  std::map<std::string, uint32_t, std::less<>> call_ns_ids_;
  uint64_t next_rpc_id_ = 1;
  bool started_ = false;
};

}  // namespace bolted::net

#endif  // SRC_NET_RPC_H_
