// Concurrent u64 -> u32 hash map with lock-free reads and mutex-serialized
// writes — the shape of the sharded engine's verdict publication
// (SharedEnforcement, scidive/enforce.h): every shard worker looks keys up
// on every decision, while inserts only happen when a rule emits a verdict.
//
// Layout: open addressing with linear probing over atomic (key, value)
// slots. A writer stores the value with release semantics *before*
// publishing the key, so any reader that observes the key also observes a
// valid value (an overwrite may race a reader, which then sees either the
// old or the new value — both were current at some instant, which is all
// the router needs). Growth allocates a fresh table, re-inserts under the
// writer mutex, then swaps the table pointer with a release store; readers
// holding the retired table keep using it safely because retired tables are
// kept alive until the map is destroyed (bounded: each retirement doubles
// capacity, so total retired memory is less than the live table).
//
// Key 0 is reserved as the empty sentinel; a real 0 key is transparently
// remapped to a private surrogate, so the full u64 domain works.
//
// Deliberately not supported: erase. Publication only ever adds or
// overwrites entries (an expired verdict reads as expired by its value),
// and skipping deletion is what keeps readers lock-free without an epoch
// scheme.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flat_map.h"  // flat_mix64

namespace scidive {

class AtomicU64Map {
 public:
  explicit AtomicU64Map(size_t min_capacity = 64) {
    size_t cap = 8;
    while (cap < min_capacity) cap <<= 1;
    table_.store(new_table(cap), std::memory_order_release);
  }

  AtomicU64Map(const AtomicU64Map&) = delete;
  AtomicU64Map& operator=(const AtomicU64Map&) = delete;

  /// Lock-free lookup; any thread. Returns false when absent.
  bool find(uint64_t key, uint32_t& out) const {
    key = encode(key);
    const Table* t = table_.load(std::memory_order_acquire);
    size_t i = flat_mix64(key) & t->mask;
    for (size_t probes = 0; probes <= t->mask; ++probes) {
      const uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
      if (k == kEmpty) return false;
      if (k == key) {
        out = t->slots[i].val.load(std::memory_order_acquire);
        return true;
      }
      i = (i + 1) & t->mask;
    }
    return false;
  }

  bool contains(uint64_t key) const {
    uint32_t unused;
    return find(key, unused);
  }

  /// Insert or overwrite; serialized across writers, safe against
  /// concurrent readers. Returns true when the key was new.
  bool insert_or_assign(uint64_t key, uint32_t value) {
    key = encode(key);
    std::lock_guard<std::mutex> lock(write_mutex_);
    Table* t = table_.load(std::memory_order_relaxed);
    if ((size_ + 1) * 2 > t->mask + 1) t = grow(t);
    return insert_slot(*t, key, value);
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    const Table* t = table_.load(std::memory_order_acquire);
    for (size_t i = 0; i <= t->mask; ++i) {
      const uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
      if (k != kEmpty) fn(decode(k), t->slots[i].val.load(std::memory_order_acquire));
    }
  }

 private:
  static constexpr uint64_t kEmpty = 0;
  /// Surrogate for a genuine key of 0 (any constant unlikely to collide
  /// works: a collision would only alias two keys, not corrupt the table).
  static constexpr uint64_t kZeroSurrogate = 0x9e3779b97f4a7c15ULL;

  static uint64_t encode(uint64_t key) { return key == 0 ? kZeroSurrogate : key; }
  static uint64_t decode(uint64_t key) { return key == kZeroSurrogate ? 0 : key; }

  struct Slot {
    std::atomic<uint64_t> key{kEmpty};
    std::atomic<uint32_t> val{0};
  };
  struct Table {
    size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  Table* new_table(size_t cap) {
    auto t = std::make_unique<Table>();
    t->mask = cap - 1;
    t->slots = std::make_unique<Slot[]>(cap);
    tables_.push_back(std::move(t));
    return tables_.back().get();
  }

  /// Writer-side insert into `t` (mutex held). Value is published before
  /// the key so readers never observe a keyed slot with a stale value.
  bool insert_slot(Table& t, uint64_t key, uint32_t value) {
    size_t i = flat_mix64(key) & t.mask;
    for (;;) {
      const uint64_t k = t.slots[i].key.load(std::memory_order_relaxed);
      if (k == key) {
        t.slots[i].val.store(value, std::memory_order_release);
        return false;
      }
      if (k == kEmpty) {
        t.slots[i].val.store(value, std::memory_order_release);
        t.slots[i].key.store(key, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_release);
        return true;
      }
      i = (i + 1) & t.mask;
    }
  }

  Table* grow(Table* old) {
    Table* bigger = new_table((old->mask + 1) * 2);
    for (size_t i = 0; i <= old->mask; ++i) {
      const uint64_t k = old->slots[i].key.load(std::memory_order_relaxed);
      if (k == kEmpty) continue;
      // Direct re-insert (no size change, no reader-ordering needed: the
      // table is unpublished until the store below).
      size_t j = flat_mix64(k) & bigger->mask;
      while (bigger->slots[j].key.load(std::memory_order_relaxed) != kEmpty)
        j = (j + 1) & bigger->mask;
      bigger->slots[j].val.store(old->slots[i].val.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
      bigger->slots[j].key.store(k, std::memory_order_relaxed);
    }
    table_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<Table*> table_{nullptr};
  std::atomic<size_t> size_{0};
  std::mutex write_mutex_;
  /// Every table ever allocated, retired ones included — readers may still
  /// be probing a retired table; all are reclaimed at destruction.
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace scidive
