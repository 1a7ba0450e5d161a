// Lock-free Chase–Lev work-stealing deque (Chase & Lev, SPAA'05, with the
// C11-memory-model corrections of Lê et al., PPoPP'13).
//
// Sledge's global work-distribution structure: the admitting side is the
// owner (push/take at the bottom; the Distributor serializes the workers
// that admit from the front door), worker cores are thieves (steal from
// the top). This decouples work distribution from the per-core
// scheduling that provides temporal isolation — the central design split of
// the paper (§3.4).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace sledge::runtime {

template <typename T>
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(size_t initial_capacity = 256)
      : buffer_(new Buffer(round_up(initial_capacity))) {}

  ~WorkStealingDeque() {
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    while (buf) {
      Buffer* prev = buf->prev;
      delete buf;
      buf = prev;
    }
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  // Owner only. Grows the ring when full (old buffers are retired lazily —
  // thieves may still be reading them).
  void push(T item) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<int64_t>(buf->capacity) - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, item);
    // A release store rather than a release fence plus a relaxed store:
    // the same ordering (a plain store on x86), and one that race checkers
    // model, so what the owner wrote before push() visibly happens before
    // a thief's acquire load of bottom_.
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only: LIFO pop from the bottom. Returns false when empty.
  bool take(T* out) {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    T item = buf->get(b);
    if (t == b) {
      // Last element: race against thieves.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    *out = item;
    return true;
  }

  // Any thread: FIFO steal from the top. Returns false when empty or lost
  // a race (caller retries or goes idle).
  bool steal(T* out) {
    int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Buffer* buf = buffer_.load(std::memory_order_consume);
    T item = buf->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    *out = item;
    return true;
  }

  // Approximate (racy) size; used for idle heuristics and stats only.
  int64_t size_estimate() const {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  struct Buffer {
    explicit Buffer(size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T>[cap]) {}
    ~Buffer() { delete[] slots; }

    T get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(int64_t i, T v) {
      slots[static_cast<size_t>(i) & mask].store(v,
                                                 std::memory_order_relaxed);
    }

    size_t capacity;
    size_t mask;
    std::atomic<T>* slots;
    Buffer* prev = nullptr;  // retired-buffer chain (freed at destruction)
  };

  static size_t round_up(size_t n) {
    size_t c = 16;
    while (c < n) c <<= 1;
    return c;
  }

  Buffer* grow(Buffer* old, int64_t t, int64_t b) {
    Buffer* bigger = new Buffer(old->capacity * 2);
    for (int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    bigger->prev = old;  // keep old alive: thieves may hold a reference
    buffer_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
};

}  // namespace sledge::runtime
