#include "scidive/rules.h"

#include <gtest/gtest.h>

#include "scidive/scidive_test_util.h"

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

/// The default ruleset's rule called `name` (spit-graylist included),
/// compiled with `config`.
RulePtr default_rule(std::string_view name, RulesConfig config = {}) {
  config.spit_graylist = true;
  for (RulePtr& rule : make_default_ruleset(config)) {
    if (rule->name() == name) return std::move(rule);
  }
  ADD_FAILURE() << "the default ruleset has no rule '" << name << "'";
  return nullptr;
}

/// Harness that feeds synthetic events straight into one rule, at position
/// 0 of a one-rule list.
struct RuleHarness {
  TrailManager trails;
  AlertSink sink;
  RuleContext ctx{trails, sink};

  RuleHarness() { ctx.set_rule(0); }

  /// The default ruleset's rule `name`; the records keep its state, laid
  /// out as the only rule.
  RulePtr rule(std::string_view name, RulesConfig config = {}) {
    RulePtr r = default_rule(name, config);
    trails.set_rule_layout(lay_out_rule_state({&r, 1}));
    return r;
  }

  /// An event of `session`, whose record is created first (by routing an
  /// ACC footprint for it): session-keyed rules keep their state there.
  Event make(EventType type, SessionId session, SimTime time, std::string aor = "",
             pkt::Endpoint endpoint = {}, int64_t value = 0, std::string detail = "") {
    if (!trails.has_session(session)) trails.add(acc_start(session, "", "", time, {}, {}));
    return Event{type, std::move(session), time, std::move(aor), endpoint, value,
                 std::move(detail)};
  }
};

TEST(ByeAttackRule, FiresOnOrphanAfterBye) {
  RuleHarness h;
  RulePtr rule = h.rule("bye-attack");
  rule->on_event(h.make(EventType::kRtpAfterBye, "c1", msec(500), "bob@lab.net", ep(2, 16384),
                        msec(12)),
                 h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "bye-attack");
  EXPECT_EQ(h.sink.alerts()[0].severity, Severity::kCritical);
  EXPECT_EQ(h.sink.alerts()[0].session, "c1");
  EXPECT_NE(h.sink.alerts()[0].message.find("bob@lab.net"), std::string::npos);
}

TEST(ByeAttackRule, IgnoresOtherEvents) {
  RuleHarness h;
  RulePtr rule = h.rule("bye-attack");
  rule->on_event(h.make(EventType::kSipByeSeen, "c1", 0), h.ctx);
  rule->on_event(h.make(EventType::kRtpAfterReinvite, "c1", 0), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(CallHijackRule, FiresOnOrphanAfterReinvite) {
  RuleHarness h;
  RulePtr rule = h.rule("call-hijack");
  rule->on_event(h.make(EventType::kRtpAfterReinvite, "c1", msec(700), "bob@lab.net",
                        ep(2, 16384)),
                 h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "call-hijack");
}

TEST(FakeImRule, AlarmsOnRapidSourceChange) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kImMessageSeen, "im1", sec(10), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "im2", sec(12), "bob@lab.net", ep(66, 5060)),
                 h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "fake-im");
}

TEST(FakeImRule, StableSourceNeverAlarms) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  for (int i = 0; i < 20; ++i) {
    rule->on_event(h.make(EventType::kImMessageSeen, "im", sec(i), "bob@lab.net", ep(2, 5060)),
                   h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(FakeImRule, SlowChangeIsMobilityNotAttack) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kImMessageSeen, "im1", sec(10), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  // Two minutes later bob is on a different network: plausible motion.
  rule->on_event(h.make(EventType::kImMessageSeen, "im2", sec(130), "bob@lab.net", ep(5, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
  // But flip-flopping back right away is not.
  rule->on_event(h.make(EventType::kImMessageSeen, "im3", sec(131), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, RegistrarUpdateSanctionsRapidMove) {
  // bob re-registers from a new address; an IM from there moments later is
  // legitimate mobility even though the mobility-rate bound would flag it.
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kImMessageSeen, "i1", sec(10), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  rule->on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(11), "bob@lab.net", ep(5, 5060),
                        /*has_auth=*/1),
                 h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "i2", sec(12), "bob@lab.net", ep(5, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(FakeImRule, RegistrationFromOtherAddressDoesNotSanction) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kImMessageSeen, "i1", sec(10), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  rule->on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(11), "bob@lab.net", ep(5, 5060)),
                 h.ctx);
  // The IM comes from yet another address (the attacker's, not the newly
  // registered one): still flagged.
  rule->on_event(h.make(EventType::kImMessageSeen, "i2", sec(12), "bob@lab.net", ep(66, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, StaleRegistrationDoesNotSanction) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(0), "bob@lab.net", ep(5, 5060)),
                 h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "i1", sec(300), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  // Registration is 5+ minutes old; the rapid flip to its address is not
  // sanctioned by it.
  rule->on_event(h.make(EventType::kImMessageSeen, "i2", sec(301), "bob@lab.net", ep(5, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, CommittedRegistrationSanctionsRapidMove) {
  // The registrar accepted bob at .5 (a location in his principal record,
  // read through registered_at): a rapid move there is mobility. A move to
  // an address never registered is not, nor is one to an address whose
  // registration is older than the registration window.
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  const std::string bob = "bob@lab.net";
  h.trails.commit_location(bob, ep(5, 5060).addr, sec(11));
  h.trails.commit_location(bob, ep(7, 5060).addr, sec(11));
  rule->on_event(h.make(EventType::kImMessageSeen, "i1", sec(10), bob, ep(2, 5060)), h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "i2", sec(12), bob, ep(5, 5060)), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
  rule->on_event(h.make(EventType::kImMessageSeen, "i3", sec(13), bob, ep(66, 5060)), h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
  rule->on_event(h.make(EventType::kImMessageSeen, "i4", sec(290), bob, ep(2, 5060)), h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "i5", sec(291), bob, ep(7, 5060)), h.ctx);
  EXPECT_EQ(h.sink.count(), 2u);
}

TEST(FakeImRule, DifferentUsersTrackedIndependently) {
  RuleHarness h;
  RulePtr rule = h.rule("fake-im");
  rule->on_event(h.make(EventType::kImMessageSeen, "i1", sec(1), "bob@lab.net", ep(2, 5060)),
                 h.ctx);
  rule->on_event(h.make(EventType::kImMessageSeen, "i2", sec(2), "carol@lab.net", ep(3, 5060)),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RtpAttackRule, FiresOnSeqJump) {
  RuleHarness h;
  RulePtr rule = h.rule("rtp-attack");
  rule->on_event(h.make(EventType::kRtpSeqJump, "c1", msec(100), "", ep(66, 40000), 4900),
                 h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "rtp-attack");
  EXPECT_EQ(h.sink.alerts()[0].severity, Severity::kCritical);
}

TEST(RtpAttackRule, FiresOnUnexpectedSourceAndGarbage) {
  RuleHarness h;
  RulePtr rule = h.rule("rtp-attack");
  rule->on_event(h.make(EventType::kRtpUnexpectedSource, "c1", 0, "", ep(66, 40000)), h.ctx);
  rule->on_event(h.make(EventType::kNonRtpOnMediaPort, "c1", 0, "", ep(66, 40000)), h.ctx);
  EXPECT_EQ(h.sink.count(), 2u);
}

TEST(BillingFraudRule, RequiresTwoIndependentConditions) {
  RuleHarness h;
  RulesConfig config;
  config.billing_min_evidence = 2;
  RulePtr rule = h.rule("billing-fraud", config);
  // One condition alone (the false-alarm case the paper warns about) stays
  // quiet...
  rule->on_event(h.make(EventType::kAccUnmatched, "c1", sec(1), "victim@lab.net"), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
  // ...the second independent condition confirms.
  rule->on_event(h.make(EventType::kRtpUnexpectedSource, "c1", sec(2), "", ep(66, 17000)),
                 h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "billing-fraud");
}

TEST(BillingFraudRule, DuplicateEvidenceDoesNotCount) {
  RuleHarness h;
  RulePtr rule = h.rule("billing-fraud");
  for (int i = 0; i < 5; ++i) {
    rule->on_event(h.make(EventType::kAccUnmatched, "c1", sec(i), "v@x"), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);  // same condition repeated is one condition
}

TEST(BillingFraudRule, AlertsOncePerSession) {
  RuleHarness h;
  RulePtr rule = h.rule("billing-fraud");
  rule->on_event(h.make(EventType::kAccUnmatched, "c1", 1), h.ctx);
  rule->on_event(h.make(EventType::kSipMalformed, "c1", 2), h.ctx);
  rule->on_event(h.make(EventType::kRtpUnexpectedSource, "c1", 3), h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(BillingFraudRule, EvidenceIsPerSession) {
  RuleHarness h;
  RulePtr rule = h.rule("billing-fraud");
  rule->on_event(h.make(EventType::kAccUnmatched, "c1", 1), h.ctx);
  rule->on_event(h.make(EventType::kSipMalformed, "c2", 2), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);  // two sessions with one condition each
}

TEST(RegisterFloodRule, FiresAfterThresholdCycles) {
  RuleHarness h;
  RulePtr rule = h.rule("register-flood");
  for (int i = 0; i < 5; ++i) {
    rule->on_event(h.make(EventType::kSipRegisterSeen, "flood", msec(i * 100), "x@lab.net", {},
                          /*has_auth=*/0),
                   h.ctx);
    rule->on_event(h.make(EventType::kSipAuthChallenge, "flood", msec(i * 100 + 10)), h.ctx);
  }
  ASSERT_GE(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "register-flood");
}

TEST(RegisterFloodRule, NormalAuthFlowDoesNotAlarm) {
  RuleHarness h;
  RulePtr rule = h.rule("register-flood");
  // Typical client: one unauthenticated attempt, 401, authenticated retry.
  rule->on_event(h.make(EventType::kSipRegisterSeen, "r1", 0, "alice@lab.net", {}, 0), h.ctx);
  rule->on_event(h.make(EventType::kSipAuthChallenge, "r1", msec(10)), h.ctx);
  rule->on_event(h.make(EventType::kSipRegisterSeen, "r1", msec(20), "alice@lab.net", {}, 1),
                 h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RegisterFloodRule, SlowCyclesOutsideWindowDoNotAccumulate) {
  RuleHarness h;
  // Ten cycles 20s apart: more than the threshold (5) in total, but never
  // two within the 10s window.
  RulePtr rule = h.rule("register-flood");
  for (int i = 0; i < 10; ++i) {
    rule->on_event(h.make(EventType::kSipRegisterSeen, "slow", sec(i * 20), "x@lab.net", {}, 0),
                   h.ctx);
    rule->on_event(h.make(EventType::kSipAuthChallenge, "slow", sec(i * 20) + msec(10)), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RegisterFloodRule, SessionsIsolated) {
  RuleHarness h;
  RulePtr rule = h.rule("register-flood");
  // Five *different* clients — as many as the threshold — each do one
  // normal unauth/401 cycle at the same moment: the stateless rule's
  // false-alarm scenario.
  for (int client = 0; client < 5; ++client) {
    std::string session = "client-" + std::to_string(client);
    rule->on_event(h.make(EventType::kSipRegisterSeen, session, msec(client), "x@lab.net", {}, 0),
                   h.ctx);
    rule->on_event(h.make(EventType::kSipAuthChallenge, session, msec(client) + 1), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(PasswordGuessRule, FiresOnDistinctFailedResponses) {
  RuleHarness h;
  RulePtr rule = h.rule("password-guess");
  for (int i = 0; i < 3; ++i) {
    rule->on_event(h.make(EventType::kSipAuthFailure, "guess", msec(i * 50), "alice@lab.net",
                          {}, 0, "response-" + std::to_string(i)),
                   h.ctx);
  }
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "password-guess");
}

TEST(PasswordGuessRule, RepeatedIdenticalResponseIsRetransmissionNotGuessing) {
  RuleHarness h;
  RulePtr rule = h.rule("password-guess");
  for (int i = 0; i < 10; ++i) {
    rule->on_event(h.make(EventType::kSipAuthFailure, "r1", msec(i * 50), "alice@lab.net", {},
                          0, "same-response"),
                   h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(Stateless4xxRule, FalseAlarmsOnUnrelatedSessions) {
  RuleHarness h;
  Stateless4xxRule rule;
  // Five different clients each get one routine 401 at around the same
  // time. The session-unaware strawman alarms; SCIDIVE's stateful rules
  // (above) do not.
  for (int i = 0; i < 5; ++i) {
    rule.on_event(h.make(EventType::kSip4xxSeen, "session-" + std::to_string(i), msec(i * 100),
                         "", {}, 401),
                  h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(MakeDefaultRuleset, ContainsAllPaperRules) {
  auto rules = make_default_ruleset();
  std::set<std::string_view> names;
  for (const auto& r : rules) names.insert(r->name());
  EXPECT_TRUE(names.contains("bye-attack"));
  EXPECT_TRUE(names.contains("call-hijack"));
  EXPECT_TRUE(names.contains("fake-im"));
  EXPECT_TRUE(names.contains("rtp-attack"));
  EXPECT_TRUE(names.contains("billing-fraud"));
  EXPECT_TRUE(names.contains("register-flood"));
  EXPECT_TRUE(names.contains("password-guess"));
  EXPECT_FALSE(names.contains("stateless-4xx"));  // strawman not enabled by default
  EXPECT_FALSE(names.contains("spit-graylist"));  // prevention rule is opt-in
  // The order rules are dispatched in (and their slots in session records).
  std::vector<std::string_view> order;
  for (const auto& r : rules) order.push_back(r->name());
  EXPECT_EQ(order, (std::vector<std::string_view>{
                       "bye-attack", "call-hijack", "fake-im", "rtp-attack", "rtcp-bye-attack",
                       "billing-fraud", "register-flood", "password-guess"}));
  RulesConfig prevention;
  prevention.spit_graylist = true;
  auto with_spit = make_default_ruleset(prevention);
  ASSERT_EQ(with_spit.size(), rules.size() + 1);
  EXPECT_EQ(with_spit.back()->name(), "spit-graylist");
}

TEST(AlertSink, CallbackAndCounts) {
  AlertSink sink;
  int seen = 0;
  sink.set_callback([&](const Alert&) { ++seen; });
  sink.raise(Alert{"r1", Severity::kInfo, "s", 0, "m"});
  sink.raise(Alert{"r2", Severity::kWarning, "s", 0, "m"});
  sink.raise(Alert{"r1", Severity::kCritical, "s", 0, "m"});
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.count_for_rule("r1"), 2u);
  EXPECT_FALSE(sink.alerts()[0].to_string().empty());
  sink.clear();
  EXPECT_EQ(sink.count(), 0u);
}

}  // namespace
}  // namespace scidive::core
