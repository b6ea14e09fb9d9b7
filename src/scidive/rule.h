// The Rule abstraction. Rules are driven by Events (the efficient path) and
// may additionally inspect Trails directly through the context (the paper's
// "crude information directly from the Trails" path, §3.1). A rule holds no
// per-key state of its own, so on_event is const: a stateful rule declares
// what it keeps per key (state_spec: the key kind, size, alignment, init and
// destroy), and keeps it in place in a record the TrailManager owns — the
// session's record for session-keyed rules, the claimed AOR's principal
// record for principal-keyed ones, the manager's one engine block for
// engine-wide state. A Ruleset lays the specs out into one block per record
// when it is built, and is then shared, immutable, by every engine, shard
// and fleet node that runs it; the context hands each rule its area in
// that block. Cross-protocol rules simply subscribe to events originating
// from different protocol trails of one session.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/alert_ledger.h"
#include "scidive/alert.h"
#include "scidive/enforce.h"
#include "scidive/event.h"
#include "scidive/rule_state.h"
#include "scidive/trail_manager.h"
#include "scidive/verdict.h"

namespace scidive::core {

/// Everything a rule may touch while matching.
class RuleContext {
 public:
  RuleContext(TrailManager& trails, AlertSink& sink, obs::AlertLedger* ledger = nullptr,
              VerdictSink* verdicts = nullptr, Enforcer* enforcer = nullptr)
      : trails_(trails), sink_(sink), ledger_(ledger), verdicts_(verdicts),
        enforcer_(enforcer) {}

  /// Query access to all trails (cross-protocol, direct inspection).
  const TrailManager& trails() const { return trails_; }

  /// Which rule the next on_event call is for: its position in the rule
  /// list, which also places its area in every record's rule-state block.
  /// The engine's dispatch loop sets it before each call; until it is set,
  /// rules see no state.
  void set_rule(size_t position) { rule_ = position; }

  /// The calling rule's state in `session`'s record, built by its spec's
  /// init on first use. nullptr when no rule is set, the session has no
  /// record or the rule keeps no session state under the manager's layout.
  template <typename State>
  State* session_slot(const SessionId& session) {
    return rule_ == kNoRule ? nullptr : static_cast<State*>(trails_.rule_slot(session, rule_));
  }
  /// Whether the calling rule has built its state in `session`'s record.
  bool holds_session_state(const SessionId& session) const {
    return rule_ != kNoRule && trails_.has_rule_state(session, rule_);
  }

  /// The calling rule's state in `aor`'s principal record, which is created
  /// on first use. nullptr when no rule is set or the rule keeps no
  /// principal state.
  template <typename State>
  State* principal_slot(std::string_view aor) {
    return rule_ == kNoRule ? nullptr : static_cast<State*>(trails_.principal_slot(aor, rule_));
  }

  /// The calling rule's engine-wide state (key kind kEngine). nullptr when
  /// no rule is set or the rule keeps no engine state.
  template <typename State>
  State* engine_slot() {
    return rule_ == kNoRule ? nullptr : static_cast<State*>(trails_.engine_slot(rule_));
  }

  void raise(std::string rule, Severity severity, const Event& cause, std::string message) {
    Alert alert{std::move(rule), severity, cause.session, cause.time, std::move(message)};
    if (ledger_) ledger_->record(alert, cause);
    sink_.raise(std::move(alert));
  }

  /// Emit a prevention verdict targeting the cause's principal/session/
  /// source. A no-op in contexts without a verdict sink (detection-only
  /// engines), so verdict-emitting rules run unchanged everywhere.
  void verdict(std::string rule, VerdictAction action, const Event& cause,
               std::string message) {
    if (verdicts_ == nullptr) return;
    Verdict v{std::move(rule), action,       cause.session, cause.time,
              cause.aor,       cause.endpoint, std::move(message)};
    if (enforcer_ != nullptr) enforcer_->apply(v);
    verdicts_->raise(std::move(v));
  }

 private:
  static constexpr size_t kNoRule = SIZE_MAX;

  TrailManager& trails_;
  size_t rule_ = kNoRule;
  AlertSink& sink_;
  obs::AlertLedger* ledger_;
  VerdictSink* verdicts_;
  Enforcer* enforcer_;
};

/// Bitmask over EventType values: which events a rule consumes.
using EventTypeMask = uint64_t;
static_assert(kEventTypeCount <= 64, "EventTypeMask is a 64-bit bitmask");

constexpr EventTypeMask event_mask(EventType t) {
  return EventTypeMask{1} << static_cast<size_t>(t);
}

template <typename... Ts>
constexpr EventTypeMask event_mask(EventType t, Ts... rest) {
  return event_mask(t) | event_mask(rest...);
}

/// Every event type — the conservative default subscription.
constexpr EventTypeMask kAllEventsMask =
    kEventTypeCount == 64 ? ~EventTypeMask{0} : (EventTypeMask{1} << kEventTypeCount) - 1;

class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  virtual void on_event(const Event& event, RuleContext& ctx) const = 0;
  /// What the rule keeps per session, per principal or per engine, in place
  /// in that record's rule-state block. The default keeps nothing.
  virtual RuleStateSpec state_spec() const { return {}; }
  /// The EventTypes this rule consumes. The engine indexes rules by type so
  /// an event only visits its subscribers; the default (everything)
  /// preserves broadcast behavior for rules that do not declare interest.
  virtual EventTypeMask subscriptions() const { return kAllEventsMask; }
  /// The rule's horizon: the longest span of time its logic looks back
  /// over (a window, a since/within bound), 0 when it compares no times.
  /// A closed session record holding the rule's state is kept at least
  /// this long after its last footprint, and an open record is kept for
  /// the longest horizon in the ruleset.
  virtual SimDuration horizon() const { return 0; }
  /// Whether the rule needs to observe anomaly-free steady-state media.
  /// The engine's established-flow fast path only bypasses the pipeline for
  /// a flow when no installed rule declares this interest: kRtpPacketSeen is
  /// the one event an in-order, in-window RTP packet can produce, so the
  /// default derives interest from that subscription bit. Rules keeping the
  /// conservative kAllEventsMask are therefore conservatively interested —
  /// narrowing subscriptions() is what opts a rule's sessions into the
  /// bypass.
  virtual bool media_steady_state_interest() const {
    return (subscriptions() & event_mask(EventType::kRtpPacketSeen)) != 0;
  }
};

using RulePtr = std::shared_ptr<const Rule>;

/// A ruleset as engines run it: the rules in position order and what an
/// engine derives from them. Immutable once built.
class Ruleset {
 public:
  explicit Ruleset(std::vector<RulePtr> rules) : rules_(std::move(rules)) {
    std::vector<RuleStateSpec> specs;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      for (size_t t = 0; t < kEventTypeCount; ++t) {
        if (rule.subscriptions() & (EventTypeMask{1} << t)) {
          subscribers_[t].push_back(static_cast<uint32_t>(i));
        }
      }
      horizons_.push_back(rule.horizon());
      max_horizon_ = std::max(max_horizon_, rule.horizon());
      media_interest_ = media_interest_ || rule.media_steady_state_interest();
      specs.push_back(rule.state_spec());
    }
    layout_ = std::make_shared<const RuleStateLayout>(specs);
  }

  const std::vector<RulePtr>& rules() const { return rules_; }
  /// Positions of the rules subscribed to `type`, in ruleset order.
  const std::vector<uint32_t>& subscribers(EventType type) const {
    return subscribers_[static_cast<size_t>(type)];
  }
  /// What a TrailManager serving the rules installs (set_rule_layout).
  const std::shared_ptr<const RuleStateLayout>& layout() const { return layout_; }
  /// Each rule position's horizon, and the longest of them.
  const std::vector<SimDuration>& horizons() const { return horizons_; }
  SimDuration max_horizon() const { return max_horizon_; }
  /// Whether some rule wants steady-state media (the fast path is then off).
  bool media_steady_state_interest() const { return media_interest_; }

 private:
  std::vector<RulePtr> rules_;
  std::vector<uint32_t> subscribers_[kEventTypeCount];
  std::shared_ptr<const RuleStateLayout> layout_;
  std::vector<SimDuration> horizons_;
  SimDuration max_horizon_ = 0;
  bool media_interest_ = false;
};

using RulesetPtr = std::shared_ptr<const Ruleset>;

inline RulesetPtr make_ruleset(std::vector<RulePtr> rules) {
  return std::make_shared<const Ruleset>(std::move(rules));
}

}  // namespace scidive::core
