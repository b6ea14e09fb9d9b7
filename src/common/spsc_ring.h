// Bounded single-producer / single-consumer ring buffer. Each slot carries a
// sequence number: the producer fills the slot at `head_` and publishes it
// with a release store of the slot's sequence; the consumer frees it with
// another. The two sides meet only on the slot being handed over — the
// consumer never reads `head_`, the producer never reads `tail_` — and each
// slot fills whole cache lines, so a consumer freeing one slot and a
// producer filling the next never write to the same line.
//
// One thread pushes and one thread consumes: the sharded engine's feeder
// feeds each worker's ring, and the live UDP source's reader thread feeds
// its ring. Elements pop in push order.
//
// Values never move in or out: the producer fills a slot's value and the
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

/// Padding for the producer- and consumer-owned indices and for ring
/// slots. A constant rather than
/// std::hardware_destructive_interference_size, whose value may differ
/// between compilers and flags (GCC warns about every use of it in a
/// header): 64 bytes is the line size of every target this builds for.
inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (size_t i = 0; i < cap; ++i) slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side (one thread): run `fill(T&)` on the value a previous
  /// lap left in the next slot, then publish it. False (fill not called)
  /// when the ring is full.
  template <typename Fill>
  bool try_push_with(Fill&& fill) {
    const size_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head & mask_];
    // The consumer has not freed this slot in the previous lap: full.
    if (slot.seq.load(std::memory_order_acquire) != head) return false;
    fill(slot.value);
    slot.seq.store(head + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer side (one thread): run `fn(T& value, const T* next)` in
  /// place on up to `max` published elements in push order, freeing each
  /// slot right after; `next` is the following element when it was already
  /// published (to prefetch), else nullptr. Each slot needs its own release
  /// store — the producer may be waiting on that exact slot — but the tail
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
      // Free the slot for the producer's next lap.
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
  /// Has the push of ticket `ticket` been published?
  bool published(size_t ticket) const {
    return slots_[ticket & mask_].seq.load(std::memory_order_acquire) == ticket + 1;
  }

  /// One slot per cache line or more: neighbours never share a line.
  struct alignas(kCacheLineSize) Slot {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  /// Producer-owned; atomic only so size() is safe cross-thread.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  /// Consumer-owned; atomic only so size() is safe cross-thread.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
};

}  // namespace scidive
