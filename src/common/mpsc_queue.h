// Bounded multi-producer / single-consumer ring buffer (Vyukov's bounded
// MPMC queue restricted to one consumer). Each slot carries a sequence
// number; a producer claims a slot with one CAS on `head_`, writes the
// value, then publishes it with a release store of the slot sequence. The
// consumer never contends with producers on any cache line except a claimed
// slot's own sequence word, and consumes in strict claim order.
//
// Ordering guarantee: all pushes from one producer thread pop in that
// producer's push order; pushes from different producers interleave in
// claim order. The sharded engine and the live UDP source each feed a ring
// from one thread, so for them the ring is plain FIFO.
//
// Values never move in or out: producers fill a slot's value and the
// consumer processes it in place, so a buffer a slot owns is reused lap
// after lap (the sharded engine's rings carry datagrams allocation-free).
// `try_push_with` is lossless-or-false: on a full ring it returns false
// without calling fill, so callers implement their own block or drop policy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace scidive {

/// Padding for the producer- and consumer-owned indices. A constant rather
/// than std::hardware_destructive_interference_size, whose value may differ
/// between compilers and flags (GCC warns about every use of it in a
/// header): 64 bytes is the line size of every target this builds for.
inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (size_t i = 0; i < cap; ++i) slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Producer side (any thread): claim a slot, run `fill(T&)` on the value
  /// a previous lap left there, publish it. False (fill not called) when
  /// the ring is full.
  template <typename Fill>
  bool try_push_with(Fill&& fill) {
    size_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[head & mask_];
      const size_t seq = slot.seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(head);
      if (diff == 0) {
        // Slot is free for this ticket; race other producers for it.
        if (head_.compare_exchange_weak(head, head + 1, std::memory_order_relaxed)) {
          fill(slot.value);
          slot.seq.store(head + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `head`; retry with the fresh ticket.
      } else if (diff < 0) {
        // Sequence lags the ticket: the consumer has not freed this slot in
        // the previous lap — the ring is full.
        return false;
      } else {
        // Another producer claimed this ticket; chase the head.
        head = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (single thread): run `fn(T& value, const T* next)` in
  /// place on up to `max` published elements in claim order, freeing each
  /// slot right after; `next` is the following element when it was already
  /// published (to prefetch), else nullptr. Each slot needs its own release
  /// store — a producer may be waiting on that exact slot — but the tail
  /// index is published once per batch. Returns the count consumed.
  template <typename Fn>
  size_t consume_batch(size_t max, Fn&& fn) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t n = 0;
    bool ready = max != 0 && published(tail);
    while (ready) {
      Slot& slot = slots_[(tail + n) & mask_];
      const bool next_ready = n + 1 < max && published(tail + n + 1);
      fn(slot.value, next_ready ? &slots_[(tail + n + 1) & mask_].value : nullptr);
      // Free the slot for the producers' next lap.
      slot.seq.store(tail + n + mask_ + 1, std::memory_order_release);
      ++n;
      // A slot published while fn ran still joins this batch.
      ready = next_ready || (n < max && published(tail + n));
    }
    if (n != 0) tail_.store(tail + n, std::memory_order_relaxed);
    return n;
  }

  size_t capacity() const { return mask_ + 1; }

  /// Approximate (exact only when both sides are quiescent). Safe to call
  /// from any thread — the snapshot path samples ring occupancy with it.
  size_t size() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }
  bool empty() const { return size() == 0; }

 private:
  /// Has the producer holding ticket `ticket` published its slot?
  bool published(size_t ticket) const {
    const size_t seq = slots_[ticket & mask_].seq.load(std::memory_order_acquire);
    return static_cast<intptr_t>(seq) - static_cast<intptr_t>(ticket + 1) >= 0;
  }

  struct Slot {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  /// Producers' claim ticket: the only line producers contend on.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  /// Consumer-owned; atomic only so size() is safe cross-thread.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
};

}  // namespace scidive
