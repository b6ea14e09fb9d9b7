// CompiledRule: the Rule adapter that executes one compiled DSL rule — every
// rule of the default ruleset. To ScidiveEngine, ShardedEngine, the per-rule
// obs instruments and the AlertLedger it is a Rule like any other. A rule
// owns no state table: a `key session` rule keeps its state record in the
// session's record (so it expires and migrates with the session), a
// `key aor` rule in the claimed AOR's principal record (so it migrates with
// the principal), both reached through the RuleContext. The immutable
// CompiledRuleDef is shared.
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
  explicit CompiledRule(std::shared_ptr<const CompiledRuleDef> def) : def_(std::move(def)) {}

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

  /// String, window and stringset slots, out of line: most rules declare
  /// none, and a record is kept per session or per AOR.
  struct Storage {
    std::vector<std::string> strs;
    std::vector<Window> windows;
    std::vector<std::set<std::string>> sets;
  };

  /// Mutable state for one key (session or AOR), held in that key's record:
  /// one numeric cell per slot, plus the storage of the other slot kinds
  /// when the rule declares any.
  struct Record : core::RuleSessionState {
    std::vector<int64_t> nums;
    std::unique_ptr<Storage> more;
  };

  /// Evaluation value. Types are static (checked at compile time), so no
  /// runtime tag: numbers/times/bools/addrs/packed endpoints/eventset bits
  /// live in `i`, strings are borrowed pointers (literals, event fields and
  /// record storage all outlive the evaluation).
  struct Value {
    int64_t i = 0;
    const std::string* s = nullptr;
  };

  /// The event's key's record, initialised on first use; nullptr when the
  /// context has no state to give.
  Record* record_for(const core::Event& event, core::RuleContext& ctx);
  /// Fill a fresh record with the definition's initial slot values.
  void init(Record& rec) const;
  /// Whether `rec` has this definition's layout (slot and storage counts).
  bool fits(const Record& rec) const;
  Value eval(const ExprProgram& program, const core::Event& event, const Record* rec,
             core::RuleContext& ctx) const;
  /// Renders alert and verdict templates alike (both are AlertPiece lists).
  std::string render(const std::vector<AlertPiece>& pieces, const core::Event& event,
                     const Record* rec, core::RuleContext& ctx) const;

  std::shared_ptr<const CompiledRuleDef> def_;
};

}  // namespace scidive::ruledsl
