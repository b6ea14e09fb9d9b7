#include "scidive/rules.h"

#include <gtest/gtest.h>

#include "scidive/scidive_test_util.h"

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

/// Harness that feeds synthetic events straight into one rule, at position
/// 0 of a one-rule list.
struct RuleHarness {
  TrailManager trails;
  AlertSink sink;
  RuleContext ctx{trails, sink};

  RuleHarness() { ctx.set_rule(0); }

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
  ByeAttackRule rule;
  rule.on_event(h.make(EventType::kRtpAfterBye, "c1", msec(500), "bob@lab.net", ep(2, 16384),
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
  ByeAttackRule rule;
  rule.on_event(h.make(EventType::kSipByeSeen, "c1", 0), h.ctx);
  rule.on_event(h.make(EventType::kRtpAfterReinvite, "c1", 0), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(CallHijackRule, FiresOnOrphanAfterReinvite) {
  RuleHarness h;
  CallHijackRule rule;
  rule.on_event(h.make(EventType::kRtpAfterReinvite, "c1", msec(700), "bob@lab.net",
                       ep(2, 16384)),
                h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "call-hijack");
}

TEST(FakeImRule, AlarmsOnRapidSourceChange) {
  RuleHarness h;
  RulesConfig config;
  config.im_mobility_interval = sec(60);
  FakeImRule rule(config);
  rule.on_event(h.make(EventType::kImMessageSeen, "im1", sec(10), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  rule.on_event(h.make(EventType::kImMessageSeen, "im2", sec(12), "bob@lab.net", ep(66, 5060)),
                h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "fake-im");
}

TEST(FakeImRule, StableSourceNeverAlarms) {
  RuleHarness h;
  FakeImRule rule(RulesConfig{});
  for (int i = 0; i < 20; ++i) {
    rule.on_event(h.make(EventType::kImMessageSeen, "im", sec(i), "bob@lab.net", ep(2, 5060)),
                  h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(FakeImRule, SlowChangeIsMobilityNotAttack) {
  RuleHarness h;
  RulesConfig config;
  config.im_mobility_interval = sec(60);
  FakeImRule rule(config);
  rule.on_event(h.make(EventType::kImMessageSeen, "im1", sec(10), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  // Two minutes later bob is on a different network: plausible motion.
  rule.on_event(h.make(EventType::kImMessageSeen, "im2", sec(130), "bob@lab.net", ep(5, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
  // But flip-flopping back right away is not.
  rule.on_event(h.make(EventType::kImMessageSeen, "im3", sec(131), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, RegistrarUpdateSanctionsRapidMove) {
  // bob re-registers from a new address; an IM from there moments later is
  // legitimate mobility even though the mobility-rate bound would flag it.
  RuleHarness h;
  RulesConfig config;
  config.im_mobility_interval = sec(60);
  FakeImRule rule(config);
  rule.on_event(h.make(EventType::kImMessageSeen, "i1", sec(10), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  rule.on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(11), "bob@lab.net", ep(5, 5060),
                       /*has_auth=*/1),
                h.ctx);
  rule.on_event(h.make(EventType::kImMessageSeen, "i2", sec(12), "bob@lab.net", ep(5, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(FakeImRule, RegistrationFromOtherAddressDoesNotSanction) {
  RuleHarness h;
  FakeImRule rule(RulesConfig{});
  rule.on_event(h.make(EventType::kImMessageSeen, "i1", sec(10), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  rule.on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(11), "bob@lab.net", ep(5, 5060)),
                h.ctx);
  // The IM comes from yet another address (the attacker's, not the newly
  // registered one): still flagged.
  rule.on_event(h.make(EventType::kImMessageSeen, "i2", sec(12), "bob@lab.net", ep(66, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, StaleRegistrationDoesNotSanction) {
  RuleHarness h;
  RulesConfig config;
  config.im_mobility_interval = sec(60);
  config.im_registration_window = sec(120);
  FakeImRule rule(config);
  rule.on_event(h.make(EventType::kSipRegisterSeen, "r1", sec(0), "bob@lab.net", ep(5, 5060)),
                h.ctx);
  rule.on_event(h.make(EventType::kImMessageSeen, "i1", sec(300), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  // Registration is 5+ minutes old; the rapid flip to its address is not
  // sanctioned by it.
  rule.on_event(h.make(EventType::kImMessageSeen, "i2", sec(301), "bob@lab.net", ep(5, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(FakeImRule, DifferentUsersTrackedIndependently) {
  RuleHarness h;
  FakeImRule rule(RulesConfig{});
  rule.on_event(h.make(EventType::kImMessageSeen, "i1", sec(1), "bob@lab.net", ep(2, 5060)),
                h.ctx);
  rule.on_event(h.make(EventType::kImMessageSeen, "i2", sec(2), "carol@lab.net", ep(3, 5060)),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RtpAttackRule, FiresOnSeqJump) {
  RuleHarness h;
  RtpAttackRule rule;
  rule.on_event(h.make(EventType::kRtpSeqJump, "c1", msec(100), "", ep(66, 40000), 4900),
                h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "rtp-attack");
  EXPECT_EQ(h.sink.alerts()[0].severity, Severity::kCritical);
}

TEST(RtpAttackRule, FiresOnUnexpectedSourceAndGarbage) {
  RuleHarness h;
  RtpAttackRule rule;
  rule.on_event(h.make(EventType::kRtpUnexpectedSource, "c1", 0, "", ep(66, 40000)), h.ctx);
  rule.on_event(h.make(EventType::kNonRtpOnMediaPort, "c1", 0, "", ep(66, 40000)), h.ctx);
  EXPECT_EQ(h.sink.count(), 2u);
}

TEST(BillingFraudRule, RequiresTwoIndependentConditions) {
  RuleHarness h;
  RulesConfig config;
  config.billing_min_evidence = 2;
  BillingFraudRule rule(config);
  // One condition alone (the false-alarm case the paper warns about) stays
  // quiet...
  rule.on_event(h.make(EventType::kAccUnmatched, "c1", sec(1), "victim@lab.net"), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
  // ...the second independent condition confirms.
  rule.on_event(h.make(EventType::kRtpUnexpectedSource, "c1", sec(2), "", ep(66, 17000)),
                h.ctx);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "billing-fraud");
}

TEST(BillingFraudRule, DuplicateEvidenceDoesNotCount) {
  RuleHarness h;
  BillingFraudRule rule(RulesConfig{});
  for (int i = 0; i < 5; ++i) {
    rule.on_event(h.make(EventType::kAccUnmatched, "c1", sec(i), "v@x"), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);  // same condition repeated is one condition
}

TEST(BillingFraudRule, AlertsOncePerSession) {
  RuleHarness h;
  BillingFraudRule rule(RulesConfig{});
  rule.on_event(h.make(EventType::kAccUnmatched, "c1", 1), h.ctx);
  rule.on_event(h.make(EventType::kSipMalformed, "c1", 2), h.ctx);
  rule.on_event(h.make(EventType::kRtpUnexpectedSource, "c1", 3), h.ctx);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(BillingFraudRule, EvidenceIsPerSession) {
  RuleHarness h;
  BillingFraudRule rule(RulesConfig{});
  rule.on_event(h.make(EventType::kAccUnmatched, "c1", 1), h.ctx);
  rule.on_event(h.make(EventType::kSipMalformed, "c2", 2), h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);  // two sessions with one condition each
}

TEST(RegisterFloodRule, FiresAfterThresholdCycles) {
  RuleHarness h;
  RulesConfig config;
  config.flood_threshold = 5;
  config.flood_window = sec(10);
  RegisterFloodRule rule(config);
  for (int i = 0; i < 5; ++i) {
    rule.on_event(h.make(EventType::kSipRegisterSeen, "flood", msec(i * 100), "x@lab.net", {},
                         /*has_auth=*/0),
                  h.ctx);
    rule.on_event(h.make(EventType::kSipAuthChallenge, "flood", msec(i * 100 + 10)), h.ctx);
  }
  ASSERT_GE(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "register-flood");
}

TEST(RegisterFloodRule, NormalAuthFlowDoesNotAlarm) {
  RuleHarness h;
  RegisterFloodRule rule(RulesConfig{});
  // Typical client: one unauthenticated attempt, 401, authenticated retry.
  rule.on_event(h.make(EventType::kSipRegisterSeen, "r1", 0, "alice@lab.net", {}, 0), h.ctx);
  rule.on_event(h.make(EventType::kSipAuthChallenge, "r1", msec(10)), h.ctx);
  rule.on_event(h.make(EventType::kSipRegisterSeen, "r1", msec(20), "alice@lab.net", {}, 1),
                h.ctx);
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RegisterFloodRule, SlowCyclesOutsideWindowDoNotAccumulate) {
  RuleHarness h;
  RulesConfig config;
  config.flood_threshold = 3;
  config.flood_window = sec(10);
  RegisterFloodRule rule(config);
  for (int i = 0; i < 6; ++i) {
    rule.on_event(h.make(EventType::kSipRegisterSeen, "slow", sec(i * 20), "x@lab.net", {}, 0),
                  h.ctx);
    rule.on_event(h.make(EventType::kSipAuthChallenge, "slow", sec(i * 20) + msec(10)), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(RegisterFloodRule, SessionsIsolated) {
  RuleHarness h;
  RulesConfig config;
  config.flood_threshold = 4;
  RegisterFloodRule rule(config);
  // Three *different* clients each do one normal unauth/401 cycle at the
  // same moment — the stateless rule's false-alarm scenario.
  for (int client = 0; client < 3; ++client) {
    std::string session = "client-" + std::to_string(client);
    rule.on_event(h.make(EventType::kSipRegisterSeen, session, msec(client), "x@lab.net", {}, 0),
                  h.ctx);
    rule.on_event(h.make(EventType::kSipAuthChallenge, session, msec(client) + 1), h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(PasswordGuessRule, FiresOnDistinctFailedResponses) {
  RuleHarness h;
  RulesConfig config;
  config.guess_threshold = 3;
  PasswordGuessRule rule(config);
  for (int i = 0; i < 3; ++i) {
    rule.on_event(h.make(EventType::kSipAuthFailure, "guess", msec(i * 50), "alice@lab.net",
                         {}, 0, "response-" + std::to_string(i)),
                  h.ctx);
  }
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.sink.alerts()[0].rule, "password-guess");
}

TEST(PasswordGuessRule, RepeatedIdenticalResponseIsRetransmissionNotGuessing) {
  RuleHarness h;
  RulesConfig config;
  config.guess_threshold = 3;
  PasswordGuessRule rule(config);
  for (int i = 0; i < 10; ++i) {
    rule.on_event(h.make(EventType::kSipAuthFailure, "r1", msec(i * 50), "alice@lab.net", {},
                         0, "same-response"),
                  h.ctx);
  }
  EXPECT_EQ(h.sink.count(), 0u);
}

TEST(Stateless4xxRule, FalseAlarmsOnUnrelatedSessions) {
  RuleHarness h;
  RulesConfig config;
  config.stateless_4xx_threshold = 5;
  Stateless4xxRule rule(config);
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
