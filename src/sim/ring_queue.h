// RingQueue<T>: a FIFO on a power-of-two circular buffer.
//
// Channel inboxes and Semaphore waiter lists only ever push at the back
// and pop at the front.  std::deque pays a node allocation every time the
// cursor crosses a block boundary — steady-state message traffic churns
// the allocator forever.  A ring buffer reaches its high-water capacity
// once and then cycles allocation-free, which is what lets the send-path
// counting-allocator test demand exactly zero.
//
// Slots are raw storage: an item is constructed where it is pushed and
// destroyed where it is popped.  Growing therefore moves only the live
// items and builds no empty ones, so an inbox nobody drains (a saturation
// blast) pays one move per queued message and nothing per empty slot.

#ifndef SRC_SIM_RING_QUEUE_H_
#define SRC_SIM_RING_QUEUE_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace bolted::sim {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() {
    while (size_ != 0) {
      pop_front();
    }
    std::allocator<T>().deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  void push_back(T&& value) {
    if (size_ == capacity_) {
      Grow();
    }
    ::new (static_cast<void*>(&slots_[(head_ + size_) & (capacity_ - 1)]))
        T(std::move(value));
    ++size_;
  }
  void push_back(const T& value) { push_back(T(value)); }

  void pop_front() {
    slots_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  void Grow() {
    const size_t capacity = capacity_ == 0 ? 8 : capacity_ * 2;
    T* fresh = std::allocator<T>().allocate(capacity);
    for (size_t i = 0; i < size_; ++i) {
      T& item = slots_[(head_ + i) & (capacity_ - 1)];
      ::new (static_cast<void*>(&fresh[i])) T(std::move(item));
      item.~T();
    }
    std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = fresh;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_RING_QUEUE_H_
