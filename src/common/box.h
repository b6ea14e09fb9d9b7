// Box<T> — a heap cell with value semantics. Copying a Box deep-copies the
// pointee; moving steals it. Used to shrink wide variant alternatives: a
// variant's footprint is its largest member, so boxing the string-heavy
// ACC, H.225 and RAS footprints keeps the per-slot stride of hot containers
// (the Trail ring) at the size of the small media footprints. (SIP, the
// bulk of the signaling, is not boxed: a SipRecord puts the fields and the
// texts in one block sized to the message instead of a cell plus a heap
// string per long text.)
//
// A default-constructed or moved-from Box is EMPTY (get() == nullptr);
// dereferencing it is UB, same as a unique_ptr. Emptiness matters because a
// boxed type can sit as a variant's first alternative: default-constructing
// the variant (every distilled Footprint starts life that way) must not
// touch the heap, or the zero-allocation media path would pay an alloc+free
// per packet before the real alternative is assigned.
#pragma once

#include <memory>
#include <utility>

namespace scidive {

template <typename T>
class Box {
 public:
  Box() = default;
  Box(T value) : p_(std::make_unique<T>(std::move(value))) {}

  Box(const Box& other) : p_(other.p_ ? std::make_unique<T>(*other.p_) : nullptr) {}
  Box(Box&&) noexcept = default;
  Box& operator=(const Box& other) {
    if (this != &other) p_ = other.p_ ? std::make_unique<T>(*other.p_) : nullptr;
    return *this;
  }
  Box& operator=(Box&&) noexcept = default;

  T& operator*() { return *p_; }
  const T& operator*() const { return *p_; }
  T* operator->() { return p_.get(); }
  const T* operator->() const { return p_.get(); }
  T* get() { return p_.get(); }
  const T* get() const { return p_.get(); }

 private:
  std::unique_ptr<T> p_;
};

}  // namespace scidive
