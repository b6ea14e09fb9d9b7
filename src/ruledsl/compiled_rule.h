// CompiledRule: the Rule adapter that executes one compiled DSL rule — every
// rule of the default ruleset. To ScidiveEngine, ShardedEngine, the per-rule
// obs instruments and the AlertLedger it is a Rule like any other. A rule
// owns no state table: a `key session` rule keeps its slots in its area of
// the session's record (so they expire and migrate with the session), a
// `key aor` rule in its area of the claimed AOR's principal record (so they
// migrate with the principal), both reached through the RuleContext. The
// area holds every slot in place at a fixed offset — numbers, window
// headers, strings and string sets — so a rule's state is no allocation of
// its own. The immutable CompiledRuleDef is shared.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ruledsl/program.h"
#include "scidive/rule.h"

namespace scidive::ruledsl {

class CompiledRule : public core::Rule {
 public:
  explicit CompiledRule(std::shared_ptr<const CompiledRuleDef> def);

  std::string_view name() const override { return def_->name; }
  void on_event(const core::Event& event, core::RuleContext& ctx) override;
  core::EventTypeMask subscriptions() const override { return def_->subscriptions; }
  /// Static analysis over the compiled transition programs: a DSL rule is
  /// steady-state-media-interested exactly when it compiled a handler for
  /// (or declared a subscription to) RtpPacketSeen — the only event an
  /// anomaly-free in-order media packet can produce. Everything else a .sdr
  /// rule can express (trail lookups included) keys off events the fast
  /// path already falls back for.
  bool media_steady_state_interest() const override {
    const HandlerRange& r =
        def_->handlers[static_cast<size_t>(core::EventType::kRtpPacketSeen)];
    if (r.begin != r.end) return true;
    return (def_->subscriptions & core::event_mask(core::EventType::kRtpPacketSeen)) != 0;
  }

  /// The largest duration the compiled program uses: every window span and
  /// every duration the expressions push (literals such as spit-graylist's
  /// `60s`, and duration parameters where they are read).
  SimDuration horizon() const override;
  /// The definition's slots in place, keyed by its `key`; no state when it
  /// declares no slots.
  core::RuleStateSpec state_spec() const override;

  const CompiledRuleDef& def() const { return *def_; }

 private:
  /// A window slot's event times, oldest first from `head` on. Times that
  /// fall out of the span advance `head`; the dead prefix is compacted away
  /// once it is half the buffer, so an add costs O(1) amortized.
  struct Window {
    std::vector<SimTime> times;
    size_t head = 0;

    size_t size() const { return times.size() - head; }
    /// Append `now` and drop every time before `now - span`.
    void add(SimTime now, SimDuration span);
  };

  /// Where each slot lives in the rule's area. The rule-state layout holds
  /// it too, so the blocks built from it outlive the rule.
  struct SlotLayout {
    std::shared_ptr<const CompiledRuleDef> def;
    std::vector<uint32_t> offsets;  // by slot index
    uint32_t bytes = 0;
    uint32_t align = 1;
    /// The slot types in order: another revision of the rule with other
    /// slots reads as another shape.
    uint64_t shape = 0;
  };
  static void init_area(void* area, const void* layout);
  static void destroy_area(void* area, const void* layout);

  /// Evaluation value. Types are static (checked at compile time), so no
  /// runtime tag: numbers/times/bools/addrs/packed endpoints/eventset bits
  /// live in `i`, strings are borrowed pointers (literals, event fields and
  /// record storage all outlive the evaluation).
  struct Value {
    int64_t i = 0;
    const std::string* s = nullptr;
  };

  /// Slot `slot` of `area`, as the type its declaration gives it.
  template <typename T>
  T& at(std::byte* area, uint32_t slot) const {
    return *reinterpret_cast<T*>(area + offsets_[slot]);
  }
  Value eval(const ExprProgram& program, const core::Event& event, std::byte* area,
             core::RuleContext& ctx) const;
  /// Renders alert and verdict templates alike (both are AlertPiece lists).
  std::string render(const std::vector<AlertPiece>& pieces, const core::Event& event,
                     std::byte* area, core::RuleContext& ctx) const;

  std::shared_ptr<const CompiledRuleDef> def_;
  std::shared_ptr<const SlotLayout> slots_;
  const uint32_t* offsets_ = nullptr;  // slots_->offsets
};

}  // namespace scidive::ruledsl
