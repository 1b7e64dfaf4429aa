// Control-plane messages and their pooled ownership box.
//
// Message is the unit of everything that crosses the simulated fabric.
// The data plane moves one per frame, and the original implementation
// boxed each into a fresh std::shared_ptr (two allocations per send once
// the control block is counted).  MessageBox replaces that: a
// unique-ownership handle whose storage comes from a thread-local
// freelist, so the steady-state frame path never touches the allocator.
// Released messages keep their string/byte-buffer capacity, which means a
// recycled box also absorbs the payload copy without reallocating.
//
// MessageBox has user-declared constructors deliberately: GCC 12 copies
// by-value *aggregate* coroutine parameters bitwise into the frame (see
// the toolchain note in src/sim/task.h), and a user-declared constructor
// is what opts a type out of that bug.  Passing MessageBox by value into
// SendBoxed / CallBoxed is therefore safe where passing Message is not.

#ifndef SRC_NET_MESSAGE_POOL_H_
#define SRC_NET_MESSAGE_POOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/bytes.h"

namespace bolted::net {

using Address = uint32_t;
using VlanId = uint16_t;

struct Message {
  Address src = 0;
  Address dst = 0;
  std::string kind;       // protocol tag, e.g. "keylime.quote"
  crypto::Bytes payload;  // real bytes (may be encrypted)
  // Bytes accounted on the wire; defaults to the payload size but can be
  // larger for messages that model bulk data without carrying it.
  uint64_t wire_bytes = 0;
  // RPC correlation (see src/net/rpc.h).
  uint64_t rpc_id = 0;
  bool rpc_response = false;

  uint64_t EffectiveWireBytes() const {
    return wire_bytes != 0 ? wire_bytes : payload.size();
  }
};

namespace detail {

// Thread-local freelist of hollowed-out Messages: simulations on different
// threads get independent pools.  Each cached Message is its own
// allocation, so one may be released on another thread than the one that
// acquired it (a sharded rack may run on another thread in the next
// window).  Everything cached is freed at thread exit.
class MessagePool {
 public:
  static Message* Acquire() {
    auto& cache = Instance();
    if (cache.free.empty()) {
      return new Message();
    }
    Message* message = cache.free.back();
    cache.free.pop_back();
    return message;
  }

  static void Release(Message* message) {
    if (message == nullptr) {
      return;
    }
    auto& cache = Instance();
    if (cache.free.size() >= kMaxCached) {
      delete message;
      return;
    }
    // Hollow the message but keep kind/payload capacity for reuse.
    message->src = 0;
    message->dst = 0;
    message->kind.clear();
    message->payload.clear();
    message->wire_bytes = 0;
    message->rpc_id = 0;
    message->rpc_response = false;
    cache.free.push_back(message);
  }

 private:
  static constexpr size_t kMaxCached = 4096;

  struct Cache {
    std::vector<Message*> free;
    ~Cache() {
      for (Message* message : free) {
        delete message;
      }
    }
  };

  static Cache& Instance() {
    static thread_local Cache cache;
    return cache;
  }
};

}  // namespace detail

// Unique-ownership handle to a pooled Message.
class MessageBox {
 public:
  MessageBox() : message_(detail::MessagePool::Acquire()) {}
  explicit MessageBox(Message&& from) : message_(detail::MessagePool::Acquire()) {
    *message_ = std::move(from);
  }
  // Deep copy — the retry path resends a fresh copy per attempt; assigning
  // into the pooled message reuses its retained buffer capacity.
  explicit MessageBox(const Message& from)
      : message_(detail::MessagePool::Acquire()) {
    *message_ = from;
  }
  MessageBox(MessageBox&& other) noexcept
      : message_(std::exchange(other.message_, nullptr)) {}
  MessageBox& operator=(MessageBox&& other) noexcept {
    if (this != &other) {
      detail::MessagePool::Release(message_);
      message_ = std::exchange(other.message_, nullptr);
    }
    return *this;
  }
  MessageBox(const MessageBox&) = delete;
  MessageBox& operator=(const MessageBox&) = delete;
  ~MessageBox() { detail::MessagePool::Release(message_); }

  Message& operator*() const { return *message_; }
  Message* operator->() const { return message_; }
  Message* get() const { return message_; }

 private:
  Message* message_;
};

}  // namespace bolted::net

#endif  // SRC_NET_MESSAGE_POOL_H_
