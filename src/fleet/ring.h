// FleetRing: deterministic assignment of the session space to fleet nodes.
//
// The session space is first cut into a fixed number of virtual slots —
// every routing key (Call-ID, From-AOR, media endpoint, CDR call-id…)
// hashes to one slot, and that mapping never changes. Membership then only
// decides which node owns each slot: for every slot, rendezvous (highest-
// random-weight) hashing over the member names picks the owner, so
//
//   * every node that agrees on the member set computes the identical
//     slot table, regardless of join order;
//   * a join or leave moves only the slots whose rendezvous winner changed
//     (expected slots/N), never reshuffles the rest — the property the
//     session-handoff path depends on to keep churn cheap.
//
// Node names are interned once into a SymbolTable; the slot table stores
// symbols and ownership lookups are one hash + one table index (the same
// Symbol/FlatMap layer the engines use for session ids).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol.h"

namespace scidive::fleet {

constexpr size_t kDefaultSlots = 64;

class FleetRing {
 public:
  explicit FleetRing(size_t num_slots = kDefaultSlots);

  /// Add/remove a member. Either recomputes the slot table. Names are
  /// limited to 64 bytes (the SEP frame header bound). Returns false when
  /// the membership did not change (already present / absent).
  bool add_node(std::string_view name);
  bool remove_node(std::string_view name);

  size_t num_slots() const { return slot_owner_.size(); }
  size_t size() const { return members_.size(); }
  bool contains(std::string_view name) const;
  /// Member names, sorted (the canonical membership view all nodes agree
  /// on).
  std::vector<std::string> members() const;

  /// Slot for a routing key. Membership-independent: safe to cache, learn
  /// media bindings against, and compare across nodes.
  size_t slot_of_key(std::string_view key) const;

  /// Owning node of a slot / key. Empty when the ring has no members.
  std::string_view owner_of_slot(size_t slot) const;
  std::string_view owner_of_key(std::string_view key) const;

  /// Slots `name` currently owns.
  std::vector<size_t> slots_of(std::string_view name) const;

  /// Slots whose owner differs between two rings over the same slot count
  /// (the handoff set for a membership change).
  static std::vector<size_t> moved_slots(const FleetRing& before, const FleetRing& after);

 private:
  void rebuild();

  SymbolTable names_;
  std::vector<Symbol> members_;              // sorted by name
  std::vector<std::optional<Symbol>> slot_owner_;
};

}  // namespace scidive::fleet
