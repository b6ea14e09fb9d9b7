// The Rule abstraction. Rules are driven by Events (the efficient path) and
// may additionally inspect Trails directly through the context (the paper's
// "crude information directly from the Trails" path, §3.1). A stateful
// rule keeps its state in a record the TrailManager owns — the session's
// record for session-keyed rules, the claimed AOR's principal record for
// principal-keyed ones — reached through the context, so the rule holds no
// table of its own. Cross-protocol rules simply subscribe to events
// originating from different protocol trails of one session.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "obs/alert_ledger.h"
#include "scidive/alert.h"
#include "scidive/enforce.h"
#include "scidive/event.h"
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
  /// list, which is also its slot in every session and principal record.
  /// The engine's dispatch loop sets it before each call; until it is set,
  /// rules see no state.
  void set_rule(size_t position) { rule_ = position; }

  /// The calling rule's slot in `session`'s record; the rule builds the
  /// state it keeps there. nullptr when no rule is set or the session has
  /// no record.
  std::unique_ptr<RuleSessionState>* session_slot(const SessionId& session) {
    return rule_ == kNoRule ? nullptr : trails_.rule_slot(session, rule_);
  }

  /// The calling rule's slot in `aor`'s principal record, which is created
  /// on first use. nullptr when no rule is set.
  std::unique_ptr<RuleSessionState>* principal_slot(std::string_view aor) {
    return rule_ == kNoRule ? nullptr : trails_.principal_slot(aor, rule_);
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
  virtual void on_event(const Event& event, RuleContext& ctx) = 0;
  /// How many state entries the rule holds in tables of its own — the
  /// observability surface for rule memory. Rules that keep their state in
  /// session or principal records keep the default: the engine counts the
  /// records holding a rule's slot itself.
  virtual size_t state_entries() const { return 0; }
  /// The EventTypes this rule consumes. The engine indexes rules by type so
  /// an event only visits its subscribers; the default (everything)
  /// preserves broadcast behavior for rules that do not declare interest.
  virtual EventTypeMask subscriptions() const { return kAllEventsMask; }
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

using RulePtr = std::unique_ptr<Rule>;

}  // namespace scidive::core
