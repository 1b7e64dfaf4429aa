#include "src/net/rpc.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/obs/obs.h"

namespace bolted::net {
namespace {

struct RpcMetricIds {
  uint32_t calls = obs::InternMetric("rpc.calls");
  uint32_t timeouts = obs::InternMetric("rpc.timeouts");
  uint32_t retries = obs::InternMetric("rpc.retries");
};

const RpcMetricIds& Ids() {
  static const RpcMetricIds ids;
  return ids;
}

// Sentinel for "observer was not attached at call start".
constexpr uint32_t kNoMetric = 0xffffffffu;

}  // namespace

RpcNode::RpcNode(sim::Simulation& sim, Endpoint& endpoint)
    : sim_(sim), endpoint_(endpoint) {}

uint32_t RpcNode::CallDurationMetric(const std::string& kind) {
  const auto it = call_ns_ids_.find(kind);
  if (it != call_ns_ids_.end()) {
    return it->second;
  }
  const uint32_t id = obs::InternMetric("rpc.call_ns." + kind);
  call_ns_ids_.emplace(kind, id);
  return id;
}

void RpcNode::RegisterHandler(const std::string& kind, Handler handler) {
  handlers_[kind] = std::move(handler);
}

void RpcNode::Start() {
  assert(!started_);
  started_ = true;
  sim_.Spawn(Dispatch());
}

sim::Task RpcNode::Dispatch() {
  for (;;) {
    Message message = co_await endpoint_.inbox().Recv();
    if (message.rpc_response) {
      const auto it = pending_.find(message.rpc_id);
      if (it == pending_.end()) {
        continue;  // late response after timeout
      }
      PendingCall call = std::move(it->second);
      pending_.erase(it);
      if (call.response != nullptr) {
        *call.response = std::move(message);
      }
      if (call.ok != nullptr) {
        *call.ok = true;
      }
      call.done->Set();
      continue;
    }
    sim_.Spawn(HandleRequest(MessageBox(std::move(message))));
  }
}

sim::Task RpcNode::HandleRequest(MessageBox request) {
  const auto it = handlers_.find(request->kind);
  if (it == handlers_.end()) {
    co_return;  // unknown service; drop like a closed port
  }
  Message response;
  co_await it->second(*request, &response);
  response.rpc_id = request->rpc_id;
  response.rpc_response = true;
  if (response.kind.empty()) {
    response.kind = request->kind + ".resp";
  }
  co_await endpoint_.Send(request->src, std::move(response));
}

// Plain shim: boxes the aggregate before the coroutine boundary.
sim::Task RpcNode::Call(Address dst, Message request, Message* response, bool* ok,
                        sim::Duration timeout) {
  return CallBoxed(dst, MessageBox(std::move(request)), response, ok, timeout);
}

sim::Task RpcNode::CallBoxed(Address dst, MessageBox request, Message* response,
                             bool* ok, sim::Duration timeout) {
  assert(started_ && "Start() the RpcNode before calling");
  const uint64_t id = next_rpc_id_++;
  request->rpc_id = id;
  request->rpc_response = false;
  if (ok != nullptr) {
    *ok = false;
  }

  // The completion event lives in this frame; responders and the timeout
  // timer reach it through the pending_ entry, and the frame cannot
  // resume (or die) before one of them fires it.
  sim::Event done(sim_);
  pending_.emplace(id, PendingCall{&done, response, ok});

  const sim::EventId timer = sim_.Schedule(timeout, [this, id]() {
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      return;
    }
    PendingCall call = std::move(it->second);
    pending_.erase(it);
    obs::CountById(sim_, Ids().timeouts);
    call.done->Set();  // ok stays false
  });

#if BOLTED_OBS
  // Resolve the per-kind duration metric (Send consumes the message) only
  // when someone is listening — the id comes from a per-node cache, so
  // repeated calls of one kind neither copy nor concatenate the name.
  const sim::Time call_start = sim_.now();
  const uint32_t call_ns_metric = sim_.observer() != nullptr
                                      ? CallDurationMetric(request->kind)
                                      : kNoMetric;
#endif
  co_await endpoint_.SendBoxed(dst, std::move(request));
  co_await done;
  sim_.Cancel(timer);
#if BOLTED_OBS
  if (call_ns_metric != kNoMetric) {
    if (obs::Registry* r = sim_.observer()) {
      r->AddById(Ids().calls);
      r->RecordDurationById(call_ns_metric, sim_.now() - call_start);
    }
  }
#endif
}

// Plain shim: boxes the aggregate before the coroutine boundary.
sim::Task RpcNode::CallWithRetry(Address dst, Message request, Message* response,
                                 bool* ok, CallOptions options) {
  return CallWithRetryBoxed(dst, MessageBox(std::move(request)), response, ok,
                            options);
}

sim::Task RpcNode::CallWithRetryBoxed(Address dst, MessageBox request,
                                      Message* response, bool* ok,
                                      CallOptions options) {
  bool attempt_ok = false;
  sim::Duration backoff = options.backoff_base;
  for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
    if (attempt > 1) {
      obs::CountById(sim_, Ids().retries);
      // Jittered backoff: scale by a uniform factor in [1 - jitter, 1] so
      // retries from independent callers decorrelate without ever waiting
      // longer than the deterministic cap.
      const double scale =
          1.0 - options.jitter * sim_.rng().NextDouble();
      co_await sim::Delay(sim_, backoff.Scaled(scale));
      backoff = std::min(backoff * 2, options.backoff_cap);
    }
    // CallBoxed consumes the message; each attempt sends a fresh copy
    // (into a recycled pooled box, so no steady-state allocation).
    co_await CallBoxed(dst, MessageBox(*request), response, &attempt_ok,
                       options.timeout);
    if (attempt_ok) {
      break;
    }
  }
  if (ok != nullptr) {
    *ok = attempt_ok;
  }
}

}  // namespace bolted::net
