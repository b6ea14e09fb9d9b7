#include "scidive/rule_state.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace scidive::core {

namespace {

size_t align_up(size_t n, size_t align) { return (n + align - 1) / align * align; }

}  // namespace

void RuleBlockLayout::add(uint32_t rule, RuleStateSpec spec) {
  entries_.push_back(Entry{rule, 0, std::move(spec)});
}

void RuleBlockLayout::close() {
  // The header: the layout pointer, then the presence words.
  size_t at = sizeof(void*) + presence_words() * sizeof(uint64_t);
  for (Entry& entry : entries_) {
    // A block comes from plain operator new, so no area may need more.
    if (entry.spec.align == 0 || entry.spec.align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) std::abort();
    at = align_up(at, entry.spec.align);
    entry.offset = static_cast<uint32_t>(at);
    at += entry.spec.size;
  }
  bytes_ = align_up(at, alignof(uint64_t));
}

bool RuleBlockLayout::compatible(const RuleBlockLayout& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& a = entries_[i];
    const Entry& b = other.entries_[i];
    if (a.rule != b.rule || a.offset != b.offset || a.spec.size != b.spec.size ||
        a.spec.align != b.spec.align || a.spec.shape != b.spec.shape ||
        a.spec.init != b.spec.init || a.spec.destroy != b.spec.destroy) {
      return false;
    }
  }
  return true;
}

RuleStateLayout::RuleStateLayout(std::span<const RuleStateSpec> specs) {
  places_.resize(specs.size());
  for (size_t rule = 0; rule < specs.size(); ++rule) {
    const RuleStateSpec& spec = specs[rule];
    if (spec.key == StateKey::kNone) continue;
    RuleBlockLayout& layout = spec.key == StateKey::kPrincipal ? principal_ : session_;
    places_[rule] = {spec.key, static_cast<uint32_t>(layout.entries_.size())};
    layout.add(static_cast<uint32_t>(rule), spec);
  }
  session_.close();
  principal_.close();
}

void* RuleStateBlock::area(const RuleBlockLayout& layout, size_t entry) {
  if (p_ == nullptr) {
    p_ = static_cast<std::byte*>(::operator new(layout.bytes()));
    std::memset(p_, 0, layout.bytes());
    ::new (p_) Header{&layout};
  }
  std::byte* at = p_ + layout.entries()[entry].offset;
  uint64_t& word = words()[entry / 64];
  const uint64_t bit = uint64_t{1} << (entry % 64);
  if ((word & bit) == 0) {
    const RuleStateSpec& spec = layout.entries()[entry].spec;
    if (spec.init != nullptr) spec.init(at, spec.arg.get());
    word |= bit;
  }
  return at;
}

void RuleStateBlock::reset() {
  if (p_ == nullptr) return;
  const RuleBlockLayout& layout = *header().layout;
  for_each_held([&](size_t entry) {
    const RuleStateSpec& spec = layout.entries()[entry].spec;
    if (spec.destroy != nullptr) spec.destroy(p_ + layout.entries()[entry].offset, spec.arg.get());
  });
  ::operator delete(p_);
  p_ = nullptr;
}

}  // namespace scidive::core
