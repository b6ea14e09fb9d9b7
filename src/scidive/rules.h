// The rule library: every detection rule discussed in the paper.
//
//   Rule                 Paper §   Cross-protocol?        Stateful?
//   BYE attack           4.2.1     SIP + RTP              session teardown state
//   Fake IM              4.2.2     SIP + IP               per-sender source history
//   Call hijacking       4.2.3     SIP + RTP              session media state
//   RTP attack           4.2.4     RTP + IP               consecutive-seq state
//   Billing fraud        3.2       SIP + ACC + RTP        3-event evidence set
//   REGISTER flood DoS   3.3       SIP                    per-session 401 cycles
//   Password guessing    3.3       SIP                    distinct failed digests
//   Stateless 4xx        5 (Snort) SIP only               none (baseline strawman)
#pragma once

#include <deque>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/symbol.h"
#include "scidive/rule.h"

namespace scidive::core {

/// Tunables for the rule library (defaults follow the paper where it gives
/// numbers: seq-jump bound 100; others chosen and documented in DESIGN.md).
struct RulesConfig {
  /// Fake IM: source-IP changes for one AOR closer together than this are
  /// implausible mobility ("allows for changes in the IP address according
  /// to the maximum rate of user motion", §4.2.2).
  SimDuration im_mobility_interval = sec(60);
  /// Fake IM: a REGISTER from the new address within this window legitimizes
  /// the source change regardless of the mobility rate.
  SimDuration im_registration_window = sec(120);
  /// Billing fraud: how many of the three §3.2 conditions must be violated.
  int billing_min_evidence = 2;
  /// DoS: unauthenticated-REGISTER/401 cycles within the window that flag a
  /// flood.
  int flood_threshold = 5;
  SimDuration flood_window = sec(10);
  /// Password guessing: distinct wrong digest responses within the window.
  int guess_threshold = 3;
  SimDuration guess_window = sec(30);
  /// Strawman stateless rule: any 4xx count in window (across sessions!).
  int stateless_4xx_threshold = 5;
  SimDuration stateless_4xx_window = sec(10);
  /// SPIT graylisting: this many call attempts by one caller AOR within the
  /// window flag the caller (alert + rate_limit verdict). A legitimate user
  /// places a handful of calls a minute; a SPIT bot places dozens.
  int spit_call_threshold = 8;
  SimDuration spit_window = sec(60);
  /// Install the SPIT graylisting rule. Off by default so the default
  /// detection ruleset — and every golden pinned against it — is unchanged;
  /// prevention deployments (and make_prevention_ruleset) turn it on.
  bool spit_graylist = false;
};

/// §4.2.1 — "No RTP traffic should be seen after a SIP BYE from a
/// particular user agent."
class ByeAttackRule : public Rule {
 public:
  std::string_view name() const override { return "bye-attack"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override { return event_mask(EventType::kRtpAfterBye); }
};

/// §4.2.3 — same orphan-flow logic keyed to re-INVITE.
class CallHijackRule : public Rule {
 public:
  std::string_view name() const override { return "call-hijack"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kRtpAfterReinvite);
  }
};

/// §4.2.2 — messages claiming one user must keep a stable source IP within
/// a mobility-bounded period. "The rule takes rate of user mobility into
/// account": a source change is also accepted immediately when the claimed
/// user recently (re-)REGISTERed from the new address — the registrar
/// update is the paper's signal of legitimate movement.
class FakeImRule : public Rule {
 public:
  explicit FakeImRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "fake-im"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  size_t state_entries() const override { return senders_.size() + registrations_.size(); }
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSipRegisterSeen, EventType::kImMessageSeen);
  }

 private:
  struct SenderHistory {
    pkt::Endpoint last_source;
    SimTime last_seen = 0;
    SimTime last_change = 0;
  };
  struct Registration {
    pkt::Ipv4Address addr;
    SimTime at = 0;
  };
  RulesConfig config_;
  /// Principal-keyed rules intern their own keys (AORs here): events are
  /// rare relative to packets, and a principal outlives any one session
  /// record.
  SymbolTable aors_;
  FlatMap<Symbol, SenderHistory> senders_;        // by claimed AOR
  FlatMap<Symbol, Registration> registrations_;   // last observed REGISTER
};

/// §4.2.4 — "Check if RTP packets come from legitimate IP address and if
/// the sequence number increases appropriately."
class RtpAttackRule : public Rule {
 public:
  std::string_view name() const override { return "rtp-attack"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kRtpSeqJump, EventType::kRtpUnexpectedSource,
                      EventType::kNonRtpOnMediaPort);
  }
};

/// §3.2 — the three-event cross-protocol billing-fraud rule. Alerts once
/// per session when enough independent conditions are violated.
class BillingFraudRule : public Rule {
 public:
  explicit BillingFraudRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "billing-fraud"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSipMalformed, EventType::kAccUnmatched,
                      EventType::kAccBilledPartyAbsent, EventType::kRtpUnexpectedSource);
  }

 private:
  /// Evidence per session, packed: one bit per EventType (the enum has far
  /// fewer than 32 values). popcount = distinct-condition count; iterating
  /// ascending bits reproduces the old std::set<EventType> alert-message
  /// order exactly.
  struct Evidence : RuleSessionState {
    uint32_t mask = 0;
    bool alerted = false;
  };
  RulesConfig config_;
};

/// §3.3 — "DoS via repeated SIP requests": alternating unauthenticated
/// REGISTERs and 401s within one session.
class RegisterFloodRule : public Rule {
 public:
  explicit RegisterFloodRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "register-flood"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSipRegisterSeen, EventType::kSipAuthChallenge);
  }

 private:
  struct SessionAuthState : RuleSessionState {
    bool last_register_had_auth = false;
    std::deque<SimTime> unauth_challenges;
    SimTime last_alert = -1;
  };
  RulesConfig config_;
};

/// §3.3 — "Password guessing": continuous SIP requests with *different*
/// challenge responses, each answered 401.
class PasswordGuessRule : public Rule {
 public:
  explicit PasswordGuessRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "password-guess"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSipAuthFailure);
  }

 private:
  struct GuessState : RuleSessionState {
    std::set<std::string> distinct_responses;
    std::deque<SimTime> failure_times;
    bool alerted = false;
  };
  RulesConfig config_;
};

/// The strawman the paper argues against (§3.3, §5): a session-unaware
/// "many 4xx responses" rule à la stock Snort. Included as the baseline
/// for the accuracy benchmarks.
class Stateless4xxRule : public Rule {
 public:
  explicit Stateless4xxRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "stateless-4xx"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  size_t state_entries() const override { return recent_4xx_.size(); }
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSip4xxSeen);
  }

 private:
  RulesConfig config_;
  std::deque<SimTime> recent_4xx_;  // across all sessions — deliberately
  SimTime last_alert = -1;
};

/// Extension (third cross-protocol chain, §3.1's SIP/RTP/RTCP example): an
/// RTCP BYE announces a stream's end; RTP from that stream continuing
/// afterwards means the RTCP BYE was forged (an RTCP-level teardown DoS
/// analogous to §4.2.1) or the media source is spoofed.
class RtcpByeRule : public Rule {
 public:
  std::string_view name() const override { return "rtcp-bye-attack"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kRtpAfterRtcpBye);
  }
};

/// Ablation twin of ByeAttackRule that forgoes the event abstraction: on
/// EVERY RTP packet (kRtpPacketSeen; requires
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
  void on_event(const Event& event, RuleContext& ctx) override;
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kRtpPacketSeen);
  }

 private:
  SimDuration window_;
};

/// SPIT defense (the "SPAM over Internet Telephony" motivation): count call
/// attempts per caller AOR in a fixed window; at the threshold, alert and
/// emit a rate_limit verdict graylisting the caller. Principal-keyed like
/// FakeImRule, so state never migrates between shards — sharded parity
/// instead requires routing initial INVITEs by caller
/// (ShardedEngineConfig::route_invite_by_caller).
class SpitGraylistRule : public Rule {
 public:
  explicit SpitGraylistRule(const RulesConfig& config) : config_(config) {}
  std::string_view name() const override { return "spit-graylist"; }
  void on_event(const Event& event, RuleContext& ctx) override;
  size_t state_entries() const override { return callers_.size(); }
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kSipInviteSeen);
  }

 private:
  /// Fixed (tumbling) window, not sliding: cheap, deterministic, and
  /// exactly expressible in the .sdr DSL twin (spit_graylist.sdr).
  struct CallerWindow {
    SimTime window_start = 0;
    int64_t attempts = 0;
    bool flagged = false;
  };
  RulesConfig config_;
  SymbolTable aors_;
  FlatMap<Symbol, CallerWindow> callers_;
};

/// The full SCIDIVE ruleset of the paper (without the strawman).
std::vector<RulePtr> make_default_ruleset(const RulesConfig& config = {});

/// The detection ruleset plus the verdict-emitting prevention rules
/// (currently SPIT graylisting) — the ruleset an inline deployment runs.
std::vector<RulePtr> make_prevention_ruleset(RulesConfig config = {});

}  // namespace scidive::core
