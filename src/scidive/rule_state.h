// Rule state in place. A stateful rule declares what it keeps per key — a
// session or a principal (a claimed AOR) — as a RuleStateSpec: the key kind,
// the state's size and alignment, and how to build and destroy it. The
// engine lays a ruleset's specs out once (RuleStateLayout): each key kind's
// stateful rules get fixed offsets in one block. A session or principal
// record then holds at most one block (RuleStateBlock), allocated on the
// record's first rule write: a header (its layout, then one presence bit per
// rule), then each rule's area at its offset. A rule's area is built on the
// rule's first use and destroyed with the block, so a record's rule state
// is one allocation however many rules write to it, and a rule reaches its
// state with no pointer chase past the block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace scidive::core {

/// The record kind a stateful rule keeps its state in.
enum class StateKey : uint8_t { kNone, kSession, kPrincipal };

/// What one rule keeps per key. A rule without state keeps key kNone.
struct RuleStateSpec {
  StateKey key = StateKey::kNone;
  uint32_t size = 0;
  uint32_t align = 1;
  /// Tells apart states of one size and one pair of functions (a compiled
  /// rule's slot types): a block laid out for another shape is dropped, not
  /// misread.
  uint64_t shape = 0;
  /// Builds the state at `area`; nullptr leaves zeroed bytes.
  void (*init)(void* area, const void* arg) = nullptr;
  /// Destroys the state at `area`; nullptr when there is nothing to destroy.
  void (*destroy)(void* area, const void* arg) = nullptr;
  /// What init and destroy read. The layout holds it, so it lives as long
  /// as any block laid out by it.
  std::shared_ptr<const void> arg;
};

/// One key kind's block layout: the header (the layout's address, then one
/// presence bit per entry), then each entry's area at its offset.
class RuleBlockLayout {
 public:
  struct Entry {
    uint32_t rule = 0;    // the rule's position in the ruleset
    uint32_t offset = 0;  // of its area, from the block's start
    RuleStateSpec spec;
  };

  std::span<const Entry> entries() const { return entries_; }
  /// The whole block's size.
  size_t bytes() const { return bytes_; }
  /// 64-bit presence words after the header's layout pointer.
  size_t presence_words() const { return (entries_.size() + 63) / 64; }
  /// Whether a block laid out by `other` reads correctly under this layout:
  /// the same rules at the same offsets, with the same sizes, shapes and
  /// functions.
  bool compatible(const RuleBlockLayout& other) const;

 private:
  friend class RuleStateLayout;
  void add(uint32_t rule, RuleStateSpec spec);
  void close();

  std::vector<Entry> entries_;
  size_t bytes_ = 0;
};

/// A ruleset's rule-state layout: one block layout per key kind, and where
/// each rule position keeps its state.
class RuleStateLayout {
 public:
  /// Where one rule position keeps its state.
  struct Place {
    StateKey key = StateKey::kNone;
    uint32_t entry = 0;  // its index in that key kind's block layout
  };

  RuleStateLayout() = default;
  /// Lays out `specs`, one per rule position.
  explicit RuleStateLayout(std::span<const RuleStateSpec> specs);

  const RuleBlockLayout& block(StateKey key) const {
    return key == StateKey::kPrincipal ? principal_ : session_;
  }
  Place place(size_t rule) const { return rule < places_.size() ? places_[rule] : Place{}; }

 private:
  RuleBlockLayout session_;
  RuleBlockLayout principal_;
  std::vector<Place> places_;
};

/// A record's rule state: empty until the record's first rule write, then
/// one block. Move-only; it destroys every area it built when it goes.
class RuleStateBlock {
 public:
  RuleStateBlock() = default;
  RuleStateBlock(RuleStateBlock&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  RuleStateBlock& operator=(RuleStateBlock&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
    }
    return *this;
  }
  RuleStateBlock(const RuleStateBlock&) = delete;
  RuleStateBlock& operator=(const RuleStateBlock&) = delete;
  ~RuleStateBlock() { reset(); }

  bool empty() const { return p_ == nullptr; }
  /// The layout the block was built under; nullptr when empty.
  const RuleBlockLayout* layout() const { return p_ == nullptr ? nullptr : header().layout; }
  /// Whether entry `entry`'s area has been built.
  bool holds(size_t entry) const {
    return p_ != nullptr && (words()[entry / 64] >> (entry % 64) & 1) != 0;
  }
  /// Entry `entry`'s area under `layout`, built on first use; the block is
  /// allocated on the first use of all. Precondition: the block is empty or
  /// was built under `layout`.
  void* area(const RuleBlockLayout& layout, size_t entry);
  /// Calls `fn(entry)` for each entry whose area has been built.
  template <typename Fn>
  void for_each_held(Fn&& fn) const {
    if (p_ == nullptr) return;
    const size_t n = header().layout->presence_words();
    for (size_t w = 0; w < n; ++w) {
      for (uint64_t bits = words()[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      }
    }
  }
  /// Re-point the block at `layout`, which must be compatible with the one
  /// it was built under (the block moved to another record table).
  void relayout(const RuleBlockLayout& layout) {
    if (p_ != nullptr) header().layout = &layout;
  }
  /// Destroy every built area and free the block.
  void reset();

 private:
  struct Header {
    const RuleBlockLayout* layout;
  };
  Header& header() const { return *reinterpret_cast<Header*>(p_); }
  uint64_t* words() const { return reinterpret_cast<uint64_t*>(p_ + sizeof(Header)); }

  std::byte* p_ = nullptr;
};

}  // namespace scidive::core
