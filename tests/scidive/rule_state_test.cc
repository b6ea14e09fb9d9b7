// Rule state in place: one block per session or principal record, laid out
// by the ruleset. A record holds one block however many rules write to it;
// the block's presence bits drive retention, the state gauges, a hot reload
// and fleet handoff, and a block laid out for another ruleset never crosses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scidive/engine.h"
#include "scidive/rule.h"
#include "scidive/rules.h"
#include "scidive/scidive_test_util.h"
#include "scidive/trail_manager.h"

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

size_t position_of(const std::vector<RulePtr>& rules, std::string_view name) {
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i]->name() == name) return i;
  }
  ADD_FAILURE() << "no rule '" << name << "'";
  return 0;
}

std::vector<RulePtr> prevention_ruleset() {
  RulesConfig config;
  config.spit_graylist = true;
  return make_default_ruleset(config);
}

/// Drives a ruleset's rules one event at a time against one trail manager
/// laid out for it.
struct Driver {
  std::vector<RulePtr> rules;
  TrailManager& trails;
  AlertSink sink;
  RuleContext ctx{trails, sink};

  Driver(std::vector<RulePtr> ruleset, TrailManager& tm) : rules(std::move(ruleset)), trails(tm) {
    trails.set_rule_layout(Ruleset(rules).layout());
  }

  void feed(std::string_view rule, EventType type, const SessionId& session, SimTime time,
            std::string aor = "", int64_t value = 0) {
    if (!trails.has_session(session)) trails.add(acc_start(session, "", "", time, {}, {}));
    const size_t position = position_of(rules, rule);
    ctx.set_rule(position);
    rules[position]->on_event(Event{type, session, time, std::move(aor), ep(9, 5060), value, ""},
                              ctx);
  }
};

TEST(RuleState, RecordWithTwoRulesStateHoldsOneBlock) {
  TrailManager tm;
  Driver d(make_default_ruleset(), tm);
  d.feed("register-flood", EventType::kSipRegisterSeen, "call-1", sec(1));
  EXPECT_EQ(tm.rule_state_blocks(), 1u);
  d.feed("billing-fraud", EventType::kAccUnmatched, "call-1", sec(2));
  EXPECT_EQ(tm.rule_state_blocks(), 1u) << "the second rule's area is in the same block";
  const std::vector<size_t> counts = tm.rule_state_counts(d.rules.size());
  EXPECT_EQ(counts[position_of(d.rules, "register-flood")], 1u);
  EXPECT_EQ(counts[position_of(d.rules, "billing-fraud")], 1u);
  EXPECT_EQ(counts[position_of(d.rules, "password-guess")], 0u) << "its bit is not set";
  // A principal-keyed rule's state goes to the principal's own block.
  d.feed("fake-im", EventType::kSipRegisterSeen, "call-1", sec(3), "bob@lab.net");
  EXPECT_EQ(tm.rule_state_blocks(), 2u);
  EXPECT_TRUE(tm.has_principal("bob@lab.net"));
  EXPECT_EQ(tm.principal_slot("bob@lab.net", position_of(d.rules, "register-flood")), nullptr)
      << "a session-keyed rule has no area in a principal block";
}

TEST(RuleState, ClosedRecordKeptForTheHorizonOfTheStateItHolds) {
  // register-flood's horizon is its 10 s window: a closed session holding
  // its state is kept 10 s; one holding none is kept the window m.
  TrailManager tm;
  Driver d(make_default_ruleset(), tm);
  RetentionPolicy policy;
  policy.closed = msec(200);
  policy.open = sec(120);
  for (const RulePtr& rule : d.rules) policy.rule_horizons.push_back(rule->horizon());
  tm.set_retention(std::move(policy));

  for (const char* call : {"with-state", "without-state"}) {
    tm.add(sip_request("REGISTER", call, "a@x", "t", "a@x", "", 0, ep(1, 5060), ep(2, 5060)));
  }
  d.feed("register-flood", EventType::kSipRegisterSeen, "with-state", 0);
  for (const char* call : {"with-state", "without-state"}) {
    const Trail& trail = *tm.find(call, Protocol::kSip);
    tm.session_state(trail).closed = true;
    tm.note_closed(trail);
  }
  constexpr SimDuration kTick = SimDuration{1} << 16;
  tm.advance(msec(200) + kTick);
  EXPECT_FALSE(tm.has_session("without-state"));
  EXPECT_TRUE(tm.has_session("with-state"));
  tm.advance(sec(10) - kTick);
  EXPECT_TRUE(tm.has_session("with-state")) << "retired before register-flood's horizon";
  tm.advance(sec(10) + kTick);
  EXPECT_FALSE(tm.has_session("with-state"));
  EXPECT_EQ(tm.stats().sessions_retired_closed, 2u);
}

TEST(RuleState, ClearFreesBlocksAndKeepsRegisteredLocations) {
  TrailManager tm;
  Driver d(prevention_ruleset(), tm);
  d.feed("register-flood", EventType::kSipRegisterSeen, "call-1", sec(1));
  d.feed("spit-graylist", EventType::kSipInviteSeen, "call-2", sec(1), "spammer@lab.net");
  d.feed("fake-im", EventType::kSipRegisterSeen, "call-3", sec(1), "bob@lab.net");
  tm.commit_location("bob@lab.net", ep(5, 5060).addr, sec(2));
  ASSERT_EQ(tm.rule_state_blocks(), 3u);

  tm.clear_rule_states();
  EXPECT_EQ(tm.rule_state_blocks(), 0u);
  EXPECT_EQ(tm.rule_state_counts(d.rules.size()), std::vector<size_t>(d.rules.size(), 0));
  EXPECT_EQ(tm.principals(), (std::vector<std::string>{"bob@lab.net"}))
      << "a principal with nothing but rule state goes";
  EXPECT_EQ(tm.registered_at("bob@lab.net", ep(5, 5060).addr), sec(2));
  EXPECT_TRUE(tm.has_session("call-1")) << "the session record stays, without its block";

  // The rules start over in fresh blocks.
  d.feed("register-flood", EventType::kSipRegisterSeen, "call-1", sec(3));
  EXPECT_EQ(tm.rule_state_blocks(), 1u);
}

TEST(RuleState, ExtractInstallMovesTheBlock) {
  // Three unauthenticated REGISTER/401 cycles here, two after the move: the
  // window of challenge times crosses with the record, so the fifth alerts.
  TrailManager from, to;
  Driver here(make_default_ruleset(), from);
  Driver there(make_default_ruleset(), to);  // its own, compatible layout
  for (int i = 0; i < 3; ++i) {
    here.feed("register-flood", EventType::kSipAuthChallenge, "reg-1", sec(i));
  }
  to.install_session(from.extract_session("reg-1"));
  EXPECT_EQ(from.rule_state_blocks(), 0u);
  EXPECT_EQ(to.rule_state_blocks(), 1u);
  there.feed("register-flood", EventType::kSipAuthChallenge, "reg-1", sec(3));
  EXPECT_EQ(there.sink.count(), 0u);
  there.feed("register-flood", EventType::kSipAuthChallenge, "reg-1", sec(4));
  EXPECT_EQ(there.sink.count_for_rule("register-flood"), 1u);
  EXPECT_EQ(here.sink.count(), 0u);
}

TEST(RuleState, LayoutMismatchOnInstallDropsTheState) {
  // With spit-graylist installed the principal block has two rules' areas,
  // without it one: a block from one never reads under the other.
  TrailManager from, to;
  Driver here(prevention_ruleset(), from);
  Driver there(make_default_ruleset(), to);
  here.feed("fake-im", EventType::kSipRegisterSeen, "c1", sec(1), "bob@lab.net");
  here.feed("fake-im", EventType::kSipRegisterSeen, "c2", sec(1), "carol@lab.net");
  from.commit_location("bob@lab.net", ep(5, 5060).addr, sec(2));

  to.install_principal(from.extract_principal("bob@lab.net"));
  to.install_principal(from.extract_principal("carol@lab.net"));
  EXPECT_EQ(to.rule_state_blocks(), 0u);
  EXPECT_EQ(to.principals(), (std::vector<std::string>{"bob@lab.net"}))
      << "a record left with nothing is not installed";
  EXPECT_EQ(to.registered_at("bob@lab.net", ep(5, 5060).addr), sec(2));

  // Session blocks are judged by the session layout alone: it is the same
  // in both rulesets, so register-flood's state crosses.
  here.feed("register-flood", EventType::kSipRegisterSeen, "reg-1", sec(3));
  to.install_session(from.extract_session("reg-1"));
  EXPECT_EQ(to.rule_state_blocks(), 1u);
  // A manager with no layout keeps no rule state at all.
  TrailManager bare;
  bare.install_session(to.extract_session("reg-1"));
  EXPECT_TRUE(bare.has_session("reg-1"));
  EXPECT_EQ(bare.rule_state_blocks(), 0u);
}

TEST(RuleState, EngineKeyedStateStaysWithTheEngine) {
  // stateless-4xx counts 4xx responses across every session, in the one
  // engine block: no session's record carries it, so a handoff leaves it
  // where it is, and only a ruleset install frees it.
  const RulesetPtr rules = make_ruleset({std::make_shared<Stateless4xxRule>()});
  ASSERT_EQ(rules->layout()->place(0).key, StateKey::kEngine);
  ScidiveEngine engine, adopter;
  engine.set_rules(rules);
  adopter.set_rules(rules);
  auto reject = [](int i) {
    return sip_packet("SIP/2.0 401 Unauthorized", "u" + std::to_string(i) + "@lab.net",
                      "call-" + std::to_string(i), "REGISTER", msec(i), ep(100, 5060),
                      ep(1, 5060));
  };
  for (int i = 0; i < 4; ++i) engine.on_packet(reject(i));
  EXPECT_EQ(engine.trails().rule_state_blocks(), 1u) << "the engine block alone";
  EXPECT_EQ(engine.trails().rule_state_counts(1), std::vector<size_t>{1});

  adopter.install_session(engine.extract_session("call-3"));
  EXPECT_TRUE(adopter.has_session("call-3"));
  EXPECT_EQ(adopter.trails().rule_state_blocks(), 0u) << "the handoff carried no 4xx window";
  engine.on_packet(reject(4));
  EXPECT_EQ(engine.alerts().count_for_rule("stateless-4xx"), 1u)
      << "the window kept the moved session's response";

  engine.set_rules(rules);
  EXPECT_EQ(engine.trails().rule_state_blocks(), 0u) << "an install starts the window fresh";
  for (int i = 5; i < 9; ++i) engine.on_packet(reject(i));
  EXPECT_EQ(engine.alerts().count_for_rule("stateless-4xx"), 1u);
  engine.on_packet(reject(9));
  EXPECT_EQ(engine.alerts().count_for_rule("stateless-4xx"), 2u)
      << "a fresh window alerts on its own fifth response, its last alert forgotten";
}

}  // namespace
}  // namespace scidive::core
