// ChangeLog: the most recent changes to a keyed table, numbered by a
// monotone generation. A downstream cache remembers the generation it last
// caught up to and, on seeing a newer one, invalidates exactly the keys that
// changed since — or learns that it must drop everything, because the
// changes include a wholesale reset or have aged out of the bounded window.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace scidive {

template <typename T, size_t N>
class ChangeLog {
  static_assert(N > 0);

 public:
  uint64_t generation() const { return generation_; }

  /// One key changed.
  void record(const T& key) {
    ++generation_;
    items_[generation_ % N] = key;
  }
  /// Everything changed: a consumer behind this generation must drop all.
  void record_reset() {
    ++generation_;
    reset_generation_ = generation_;
  }

  /// Visit, oldest first, every key recorded after generation `since`.
  /// Returns false, visiting nothing, when the caller cannot catch up key by
  /// key: a reset happened after `since`, or more than N changes did.
  template <typename Fn>
  bool for_each_since(uint64_t since, Fn&& fn) const {
    if (reset_generation_ > since || generation_ - since > N) return false;
    for (uint64_t g = since + 1; g <= generation_; ++g) fn(items_[g % N]);
    return true;
  }

 private:
  std::array<T, N> items_{};
  uint64_t generation_ = 0;
  uint64_t reset_generation_ = 0;
};

}  // namespace scidive
