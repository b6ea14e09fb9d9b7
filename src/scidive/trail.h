// Trails — per-session, per-protocol footprint sequences (§3.1). "Footprints
// that belong to the same session are typically grouped into a Trail"; a
// session owns one trail per protocol (the cross-protocol substrate: the
// §3.2 example's SIP trail / RTP trail / Accounting trail).
#pragma once

#include <new>
#include <string>

#include "common/arena.h"
#include "common/symbol.h"
#include "scidive/footprint.h"

namespace scidive::core {

/// Sessions are identified by the SIP Call-ID where one exists; RTP flows
/// that cannot be tied to a signaled call get a synthetic "flow:..." id.
using SessionId = std::string;

struct TrailKey {
  SessionId session;
  Protocol protocol;

  auto operator<=>(const TrailKey&) const = default;
  std::string to_string() const {
    return session + "/" + std::string(protocol_name(protocol));
  }
};

/// An append-only, bounded sequence of footprints. The bound keeps memory
/// finite on long sessions ("configured to handle packets spread out
/// arbitrarily far apart in time, constrained in practice by the amount of
/// memory available", §1); eviction drops the oldest footprints but keeps
/// counters, so aggregate rules stay correct.
///
/// Storage is a ring over a flat slot array that starts at kFirstRingSlots
/// and doubles up to the bound, after which every append overwrites the
/// oldest slot in place. When the ring is arena-backed, growth first tries
/// Arena::try_extend: the ring is usually its session arena's newest
/// allocation, so growth is a bump-pointer adjustment — no element moves,
/// no abandoned blocks — and the steady-state media path performs no heap
/// allocation per packet. The slots live in the arena, but what a slot owns
/// does not: a SIP footprint's block is freed when its slot is overwritten
/// or the trail is destroyed, so a wrapping ring holds a bounded number of
/// blocks however long the session runs.
class Trail {
 public:
  /// Slots of a ring's first block. Most trails hold a handful of
  /// footprints (a REGISTER or MESSAGE and its answer; a short call's
  /// signaling or its first RTP packets), so rings start at four slots and
  /// double from there up to the bound.
  static constexpr size_t kFirstRingSlots = 4;

  /// `sym` is the interned id of key.session when the trail is managed by a
  /// TrailManager (kInvalidSymbol for directly-constructed trails). `arena`,
  /// when set, backs the ring storage: growth bumps the owning session's
  /// arena instead of the global heap, and session teardown reclaims it
  /// wholesale.
  Trail(TrailKey key, size_t max_footprints = 4096, Symbol sym = kInvalidSymbol,
        Arena* arena = nullptr)
      : key_(std::move(key)),
        sym_(sym),
        max_footprints_(max_footprints == 0 ? 1 : max_footprints),
        arena_(arena) {}

  Trail(Trail&& other) noexcept
      : total_appended_(other.total_appended_),
        last_time_(other.last_time_),
        key_(std::move(other.key_)),
        sym_(other.sym_),
        max_footprints_(other.max_footprints_),
        arena_(other.arena_),
        slots_(other.slots_),
        cap_(other.cap_),
        count_(other.count_),
        head_(other.head_),
        evicted_(other.evicted_),
        first_time_(other.first_time_) {
    other.slots_ = nullptr;
    other.cap_ = other.count_ = other.head_ = 0;
  }
  Trail(const Trail&) = delete;
  Trail& operator=(const Trail&) = delete;
  Trail& operator=(Trail&&) = delete;

  ~Trail() {
    for (size_t i = 0; i < count_; ++i) slots_[i].~Footprint();
    if (arena_ == nullptr && slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t{alignof(Footprint)});
    }
    // Arena-backed slots are reclaimed wholesale at session release.
  }

  void append(Footprint fp) {
    last_time_ = fp.time;
    if (count_ == 0) first_time_ = fp.time;
    if (count_ < max_footprints_) {
      if (count_ == cap_) grow();
      ::new (&slots_[count_]) Footprint(std::move(fp));
      ++count_;
    } else {
      slots_[head_] = std::move(fp);
      head_ = head_ + 1 == count_ ? 0 : head_ + 1;
      ++evicted_;
    }
    ++total_appended_;
  }

  /// Account one packet the engine's bypass stepped without materializing
  /// its footprint: the append counter and the idle-expiry clock move
  /// exactly as append() would move them; the ring holds no record of
  /// bypassed packets, which is the point.
  void note_bypassed(SimTime time) {
    last_time_ = time;
    ++total_appended_;
  }

  const TrailKey& key() const { return key_; }
  /// Interned session id (kInvalidSymbol outside a TrailManager).
  Symbol sym() const { return sym_; }
  /// Re-key to a different interner's symbol. Only the owning TrailManager
  /// calls this, when a migrated session's slot is adopted by another
  /// manager (the id string is unchanged; the dense id is per-interner).
  void rebind(Symbol sym) { sym_ = sym; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint64_t total_appended() const { return total_appended_; }
  uint64_t evicted() const { return evicted_; }
  SimTime first_time() const { return first_time_; }
  SimTime last_time() const { return last_time_; }

  /// Logical index access, oldest first.
  const Footprint& at(size_t i) const {
    size_t idx = head_ + i;
    if (idx >= count_) idx -= count_;
    return slots_[idx];
  }
  const Footprint& front() const { return at(0); }
  const Footprint& back() const { return at(count_ - 1); }

  /// Newest-first scan; stops when fn returns true ("found").
  template <typename Fn>
  bool scan_newest_first(Fn&& fn) const {
    for (size_t i = count_; i-- > 0;) {
      if (fn(at(i))) return true;
    }
    return false;
  }

 private:
  void grow() {
    size_t new_cap = cap_ == 0 ? kFirstRingSlots : cap_ * 2;
    if (new_cap > max_footprints_) new_cap = max_footprints_;
    if (arena_ != nullptr) {
      if (slots_ != nullptr &&
          arena_->try_extend(slots_, cap_ * sizeof(Footprint), new_cap * sizeof(Footprint))) {
        cap_ = new_cap;
        return;
      }
      auto* fresh = static_cast<Footprint*>(
          arena_->allocate(new_cap * sizeof(Footprint), alignof(Footprint)));
      relocate(fresh);
      cap_ = new_cap;
      return;
    }
    auto* fresh = static_cast<Footprint*>(::operator new(
        new_cap * sizeof(Footprint), std::align_val_t{alignof(Footprint)}));
    Footprint* old = slots_;
    relocate(fresh);
    if (old != nullptr) ::operator delete(old, std::align_val_t{alignof(Footprint)});
    cap_ = new_cap;
  }

  void relocate(Footprint* fresh) {
    for (size_t i = 0; i < count_; ++i) {
      ::new (&fresh[i]) Footprint(std::move(slots_[i]));
      slots_[i].~Footprint();
    }
    slots_ = fresh;
  }

  // First: the engine's bypass updates both on every packet.
  uint64_t total_appended_ = 0;
  SimTime last_time_ = 0;
  TrailKey key_;
  Symbol sym_ = kInvalidSymbol;
  size_t max_footprints_;
  Arena* arena_ = nullptr;
  Footprint* slots_ = nullptr;
  size_t cap_ = 0;
  size_t count_ = 0;
  size_t head_ = 0;  // index of the oldest footprint once the ring is full
  uint64_t evicted_ = 0;
  SimTime first_time_ = 0;
};

}  // namespace scidive::core
