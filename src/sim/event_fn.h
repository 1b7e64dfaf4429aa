// EventFn: a move-only callable for scheduled events, always stored
// inline.
//
// Every event in the simulator is a small lambda (a coroutine handle, a
// pointer or two, a routed frame), so EventFn keeps the callable in place
// and scheduling never touches the allocator.  A callable that does not
// fit is a compile error, not a silent heap fallback: capture a pointer
// to large state instead.  The timing wheel's records hold EventFns by
// value and move them out when they fire.

#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace bolted::sim {

class EventFn {
 public:
  // sizeof(EventFn) is one cache line: the storage plus the ops pointer.
  static constexpr size_t kInlineSize = 56;

  EventFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): converting by design
    static_assert(sizeof(D) <= kInlineSize, "event callable too large");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "event callable over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event callable must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Moves the callable from src storage into dst storage and destroys
    // the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kOps = {
      [](void* storage) { (*std::launder(reinterpret_cast<D*>(storage)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* storage) noexcept {
        std::launder(reinterpret_cast<D*>(storage))->~D();
      }};

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 64);

}  // namespace bolted::sim

#endif  // SRC_SIM_EVENT_FN_H_
