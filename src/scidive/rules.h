// The rule library. The paper's rules are declarative `.sdr` rules
// (src/scidive/rules/), compiled into the default ruleset:
//
//   Rule                 Paper §   Cross-protocol?        Stateful?
//   bye-attack           4.2.1     SIP + RTP              session teardown state
//   call-hijack          4.2.3     SIP + RTP              session media state
//   fake-im              4.2.2     SIP + IP               per-sender source history
//   rtp-attack           4.2.4     RTP + IP               consecutive-seq state
//   rtcp-bye-attack      3.1       RTCP + RTP             stream teardown state
//   billing-fraud        3.2       SIP + ACC + RTP        3-event evidence set
//   register-flood       3.3       SIP                    per-session 401 cycles
//   password-guess       3.3       SIP                    distinct failed digests
//   spit-graylist        —         SIP                    per-caller attempt window
//
// The two strawmen the benchmarks measure against stay in C++:
// Stateless4xxRule (a session-unaware Snort-style rule, §5) and
// DirectTrailScanByeRule (bye-attack without the event abstraction, §3.1).
#pragma once

#include <deque>
#include <vector>

#include "scidive/rule.h"

namespace scidive::core {

/// The configurable parameters of the default ruleset. Every other
/// threshold and window is a constant of its `.sdr` rule.
struct RulesConfig {
  /// billing-fraud: how many of the three §3.2 conditions must be violated.
  int billing_min_evidence = 2;
  /// spit-graylist: this many call attempts by one caller AOR within 60s
  /// flag the caller (alert + rate_limit verdict). A legitimate user places
  /// a handful of calls a minute; a SPIT bot places dozens.
  int spit_call_threshold = 8;
  /// Install the spit-graylist rule. Off by default so the default
  /// detection ruleset — and every golden pinned against it — is unchanged;
  /// prevention deployments turn it on.
  bool spit_graylist = false;

  auto operator<=>(const RulesConfig&) const = default;
};

/// The strawman the paper argues against (§3.3, §5): a session-unaware
/// "many 4xx responses" rule à la stock Snort — 5 responses within 10s, in
/// any sessions. Included as the baseline for the accuracy benchmarks. Its
/// one window spans every session, so it lives in the engine block.
class Stateless4xxRule : public Rule {
 public:
  static constexpr int kThreshold = 5;
  static constexpr SimDuration kWindow = sec(10);

  std::string_view name() const override { return "stateless-4xx"; }
  void on_event(const Event& event, RuleContext& ctx) const override;
  RuleStateSpec state_spec() const override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSip4xxSeen);
  }
  SimDuration horizon() const override { return kWindow; }

  struct State {
    std::deque<SimTime> recent_4xx;  // across all sessions — deliberately
    SimTime last_alert = -1;
  };
};

/// Ablation twin of the bye-attack rule that forgoes the event abstraction:
/// on EVERY RTP packet (kRtpPacketSeen; requires
/// EventGeneratorConfig::emit_per_packet_events) it searches the session's
/// SIP trail for a BYE and the BYE sender's announced media endpoint — the
/// paper's "crude information directly from the Trails" path, kept here to
/// measure what the Event Generator saves ("this direct access is
/// inefficient compared to the rule matching using Events since it involves
/// searching for specific Footprints, possibly in multiple Trails", §3.1).
class DirectTrailScanByeRule : public Rule {
 public:
  explicit DirectTrailScanByeRule(SimDuration window = msec(200)) : window_(window) {}
  std::string_view name() const override { return "bye-attack-direct"; }
  void on_event(const Event& event, RuleContext& ctx) const override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kRtpPacketSeen);
  }
  /// No bytes: the presence bit alone marks a session alerted on.
  RuleStateSpec state_spec() const override {
    RuleStateSpec spec;
    spec.key = StateKey::kSession;
    return spec;
  }
  SimDuration horizon() const override { return window_; }

 private:
  SimDuration window_;
};

/// The full SCIDIVE ruleset of the paper (without the strawmen), compiled
/// from the embedded `.sdr` rules once per distinct `config` per process;
/// spit-graylist is included when `config.spit_graylist` is set.
RulesetPtr default_ruleset(const RulesConfig& config = {});
/// default_ruleset(config)'s rules.
std::vector<RulePtr> make_default_ruleset(const RulesConfig& config = {});

}  // namespace scidive::core
