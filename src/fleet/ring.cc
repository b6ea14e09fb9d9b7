#include "fleet/ring.h"

#include <algorithm>

#include "common/flat_map.h"
#include "scidive/shard_router.h"

namespace scidive::fleet {

namespace {

/// Rendezvous weight of (node, slot). Node hash folded with the slot index
/// through the same mix the FlatMap layer uses — cheap, and any bias would
/// show up directly in the balance test.
uint64_t weight(uint64_t node_hash, size_t slot) {
  return flat_mix64(node_hash ^ (0x9e3779b97f4a7c15ULL * (slot + 1)));
}

}  // namespace

FleetRing::FleetRing(size_t num_slots) : slot_owner_(num_slots == 0 ? 1 : num_slots) {}

bool FleetRing::contains(std::string_view name) const {
  auto sym = names_.find(name);
  if (!sym) return false;
  return std::find(members_.begin(), members_.end(), *sym) != members_.end();
}

bool FleetRing::add_node(std::string_view name) {
  if (name.empty() || name.size() > 64 || contains(name)) return false;
  members_.push_back(names_.intern(name));
  rebuild();
  return true;
}

bool FleetRing::remove_node(std::string_view name) {
  auto sym = names_.find(name);
  if (!sym) return false;
  auto it = std::find(members_.begin(), members_.end(), *sym);
  if (it == members_.end()) return false;
  members_.erase(it);
  rebuild();
  return true;
}

std::vector<std::string> FleetRing::members() const {
  std::vector<std::string> out;
  out.reserve(members_.size());
  for (Symbol sym : members_) out.emplace_back(names_.name(sym));
  return out;
}

void FleetRing::rebuild() {
  // Canonical member order: by name, so the table is identical no matter
  // what order nodes were added in.
  std::sort(members_.begin(), members_.end(), [&](Symbol a, Symbol b) {
    return names_.name(a) < names_.name(b);
  });
  std::vector<uint64_t> hashes(members_.size());
  for (size_t i = 0; i < members_.size(); ++i)
    hashes[i] = core::ShardRouter::key_hash(names_.name(members_[i]));
  for (size_t slot = 0; slot < slot_owner_.size(); ++slot) {
    if (members_.empty()) {
      slot_owner_[slot] = std::nullopt;
      continue;
    }
    size_t best = 0;
    uint64_t best_weight = weight(hashes[0], slot);
    for (size_t i = 1; i < members_.size(); ++i) {
      const uint64_t w = weight(hashes[i], slot);
      // Name order breaks exact weight ties deterministically (already the
      // iteration order, so strictly-greater suffices).
      if (w > best_weight) {
        best = i;
        best_weight = w;
      }
    }
    slot_owner_[slot] = members_[best];
  }
}

size_t FleetRing::slot_of_key(std::string_view key) const {
  // Must agree with the dispatcher's ShardRouter over num_slots shards —
  // the router decides where packets go, the ring decides who owns slots.
  return core::ShardRouter::shard_of(key, slot_owner_.size());
}

std::string_view FleetRing::owner_of_slot(size_t slot) const {
  const auto& owner = slot_owner_[slot % slot_owner_.size()];
  if (!owner) return {};
  return names_.name(*owner);
}

std::string_view FleetRing::owner_of_key(std::string_view key) const {
  return owner_of_slot(slot_of_key(key));
}

std::vector<size_t> FleetRing::slots_of(std::string_view name) const {
  std::vector<size_t> out;
  auto sym = names_.find(name);
  if (!sym) return out;
  for (size_t slot = 0; slot < slot_owner_.size(); ++slot) {
    if (slot_owner_[slot] == *sym) out.push_back(slot);
  }
  return out;
}

std::vector<size_t> FleetRing::moved_slots(const FleetRing& before, const FleetRing& after) {
  std::vector<size_t> out;
  const size_t n = std::min(before.num_slots(), after.num_slots());
  for (size_t slot = 0; slot < n; ++slot) {
    if (before.owner_of_slot(slot) != after.owner_of_slot(slot)) out.push_back(slot);
  }
  return out;
}

}  // namespace scidive::fleet
