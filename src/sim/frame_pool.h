// Size-classed freelist for coroutine frames.
//
// Every co_await Delay / Send / Consume in the simulator allocates a
// coroutine frame; under fleet-scale workloads those allocations dominate
// the data-plane profile.  Frames are short-lived and come in a handful
// of sizes (one per coroutine function), so a freelist bucketed by
// rounded size turns the steady state into pointer pops — zero calls
// into the allocator on the frame path.
//
// Thread-local, so simulations on different threads never contend.  Each
// cached chunk is its own allocation, so a chunk may be freed on another
// thread than the one that allocated it: a sharded rack may run on another
// thread in the next window.  All chunks are returned to the real
// allocator at thread exit, keeping leak checkers quiet.

#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <new>
#include <vector>

namespace bolted::sim::detail {

class FramePool {
 public:
  static void* Allocate(size_t size) {
    const size_t cls = SizeClass(size);
    if (cls >= kNumClasses) {
      return ::operator new(size);
    }
    auto& bucket = Buckets()[cls];
    if (bucket.empty()) {
      return ::operator new((cls + 1) * kGranularity);
    }
    void* chunk = bucket.back();
    bucket.pop_back();
    return chunk;
  }

  static void Deallocate(void* chunk, size_t size) {
    const size_t cls = SizeClass(size);
    if (cls >= kNumClasses) {
      ::operator delete(chunk);
      return;
    }
    auto& bucket = Buckets()[cls];
    if (bucket.size() >= kMaxPerClass) {
      ::operator delete(chunk);  // cap the cache; bursts shrink back
      return;
    }
    bucket.push_back(chunk);
  }

 private:
  // 64-byte granularity covers every coroutine frame in the tree with at
  // most ~15% slack; frames larger than 4 KiB (none today) bypass the
  // pool.
  static constexpr size_t kGranularity = 64;
  static constexpr size_t kNumClasses = 64;
  static constexpr size_t kMaxPerClass = 8192;

  static size_t SizeClass(size_t size) {
    return (size + kGranularity - 1) / kGranularity - 1;
  }

  struct Cache {
    std::vector<void*> buckets[kNumClasses];
    ~Cache() {
      for (auto& bucket : buckets) {
        for (void* chunk : bucket) {
          ::operator delete(chunk);
        }
      }
    }
  };

  static Cache& Instance() {
    static thread_local Cache cache;
    return cache;
  }
  static std::vector<void*>* Buckets() { return Instance().buckets; }
};

}  // namespace bolted::sim::detail

#endif  // SRC_SIM_FRAME_POOL_H_
