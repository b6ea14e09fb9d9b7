// CompiledRule interpreter: slot state per key, branch execution, the
// expression ops (since/within/count/addr/has_trail, never semantics) and
// alert rendering — driven event-by-event, without an engine.
#include "ruledsl/compiled_rule.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ruledsl/loader.h"
#include "scidive/rule.h"
#include "scidive/scidive_test_util.h"
#include "scidive/trail_manager.h"

namespace scidive::ruledsl {
namespace {

using core::Event;
using core::EventType;

/// Give `session` a record by routing an ACC footprint for it (an ACC
/// trail leaves has_trail("sip"/"rtp") false).
void route_session(core::TrailManager& trails, const std::string& session) {
  if (trails.has_session(session)) return;
  trails.add(core::testing::acc_start(session, "", "", 0, {}, {}));
}

/// Drives the first rule of a compiled ruleset (rule position 0).
struct Harness {
  core::TrailManager trails;
  core::AlertSink sink;
  core::RuleContext ctx{trails, sink};
  std::vector<core::RulePtr> rules;

  explicit Harness(std::string_view text) {
    ctx.set_rule(0);
    auto compiled = compile_ruleset_text(text, "test.sdr");
    EXPECT_TRUE(compiled.ok()) << compiled.error().to_string();
    if (compiled.ok()) rules = make_ruleset(compiled.value())->rules();
    trails.set_rule_layout(core::Ruleset(rules).layout());
  }

  const core::Rule& rule() { return *rules.at(0); }
  /// What the engine's state gauge reads for the rule: the session and
  /// principal records holding its slot.
  size_t state_entries() const { return trails.rule_state_counts(1)[0]; }

  /// An event of `session`, whose record is created first: `key session`
  /// state lives there.
  Event event(EventType type, const std::string& session, SimTime time) {
    route_session(trails, session);
    Event e;
    e.type = type;
    e.session = session;
    e.time = time;
    e.aor = "alice@lab.net";
    e.endpoint = {pkt::Ipv4Address(10, 0, 0, 2), 16384};
    e.value = 42;
    e.detail = "detail-text";
    return e;
  }

  std::vector<std::string> messages() const {
    std::vector<std::string> out;
    for (const core::Alert& a : sink.alerts()) out.push_back(a.message);
    return out;
  }
};

TEST(CompiledRule, StatelessRuleKeepsNoRecords) {
  Harness h("rule r { on RtpSeqJump { alert critical \"jump {value}\"; } }");
  h.rule().on_event(h.event(EventType::kRtpSeqJump, "s1", sec(1)), h.ctx);
  h.rule().on_event(h.event(EventType::kRtpSeqJump, "s2", sec(2)), h.ctx);
  EXPECT_EQ(h.state_entries(), 0u);
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"jump 42", "jump 42"}));
}

TEST(CompiledRule, SubscriptionsComeFromTheDef) {
  Harness h("rule r { on RtpSeqJump, SipByeSeen { alert info \"x\"; } }");
  EXPECT_EQ(h.rule().subscriptions(),
            core::event_mask(EventType::kRtpSeqJump, EventType::kSipByeSeen));
}

TEST(CompiledRule, StateIsPerSessionKey) {
  Harness h(R"sdr(
rule r {
  key session;
  state { bool seen = false; }
  on SipByeSeen {
    if seen { alert warning "again"; } else { set seen = true; }
  }
}
)sdr");
  h.rule().on_event(h.event(EventType::kSipByeSeen, "s1", sec(1)), h.ctx);
  h.rule().on_event(h.event(EventType::kSipByeSeen, "s2", sec(2)), h.ctx);
  EXPECT_TRUE(h.messages().empty()) << "first touch per session takes the else arm";
  EXPECT_EQ(h.state_entries(), 2u);
  h.rule().on_event(h.event(EventType::kSipByeSeen, "s1", sec(3)), h.ctx);
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"again"}));
  EXPECT_EQ(h.state_entries(), 2u);
}

TEST(CompiledRule, StateKeyedByAorIgnoresSession) {
  Harness h(R"sdr(
rule r {
  key aor;
  state { bool seen = false; }
  on ImMessageSeen {
    if seen { alert info "repeat"; } else { set seen = true; }
  }
}
)sdr");
  h.rule().on_event(h.event(EventType::kImMessageSeen, "dialog-1", sec(1)), h.ctx);
  h.rule().on_event(h.event(EventType::kImMessageSeen, "dialog-2", sec(2)), h.ctx);
  EXPECT_EQ(h.state_entries(), 1u) << "same AOR, different dialogs: one record";
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"repeat"}));
}

TEST(CompiledRule, SinceAndWithinHonorNever) {
  Harness h(R"sdr(
rule r {
  key session;
  state { time t = never; }
  on SipByeSeen { set t = time; }
  on RtpPacketSeen {
    if within(t, 2s) { alert critical "in-window {since(t)}"; }
    if !within(t, 2s) && since(t) > 10s { alert info "stale"; }
  }
}
)sdr");
  // Before any BYE: t == never, within() is false and since() is huge.
  h.rule().on_event(h.event(EventType::kRtpPacketSeen, "s1", sec(1)), h.ctx);
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"stale"}));

  h.rule().on_event(h.event(EventType::kSipByeSeen, "s1", sec(10)), h.ctx);
  h.rule().on_event(h.event(EventType::kRtpPacketSeen, "s1", sec(11)), h.ctx);
  EXPECT_EQ(h.messages(),
            (std::vector<std::string>{"stale", "in-window 1000000"}));

  // Outside the window but not yet stale: no further alert.
  h.rule().on_event(h.event(EventType::kRtpPacketSeen, "s1", sec(15)), h.ctx);
  EXPECT_EQ(h.messages().size(), 2u);
}

TEST(CompiledRule, EventsetAccumulatesAndRenders) {
  Harness h(R"sdr(
rule r {
  key session;
  state { eventset e; }
  on SipMalformed, AccUnmatched {
    add e;
    if count(e) >= 2 {
      alert critical "{count(e)} kinds: {e}";
    }
  }
}
)sdr");
  // The same type twice is one bit: no alert.
  h.rule().on_event(h.event(EventType::kSipMalformed, "s1", sec(1)), h.ctx);
  h.rule().on_event(h.event(EventType::kSipMalformed, "s1", sec(2)), h.ctx);
  EXPECT_TRUE(h.messages().empty());
  h.rule().on_event(h.event(EventType::kAccUnmatched, "s1", sec(3)), h.ctx);
  // Rendering joins names in EventType declaration order.
  EXPECT_EQ(h.messages(),
            (std::vector<std::string>{"2 kinds: SipMalformed, AccUnmatched"}));
}

TEST(CompiledRule, AddrOfEndpointAndStringSlots) {
  Harness h(R"sdr(
rule r {
  key aor;
  state { addr origin; string who = "nobody"; bool primed = false; }
  on ImMessageSeen {
    if !primed {
      set primed = true;
      set origin = addr(endpoint);
      set who = aor;
    } else {
      if addr(endpoint) != origin {
        alert warning "{who} moved from {origin} to {endpoint}";
      }
    }
  }
}
)sdr");
  h.rule().on_event(h.event(EventType::kImMessageSeen, "s1", sec(1)), h.ctx);
  Event moved = h.event(EventType::kImMessageSeen, "s1", sec(2));
  moved.endpoint = {pkt::Ipv4Address(10, 0, 0, 9), 5060};
  h.rule().on_event(moved, h.ctx);
  EXPECT_EQ(h.messages(), (std::vector<std::string>{
                              "alice@lab.net moved from 10.0.0.2 to 10.0.0.9:5060"}));
}

TEST(CompiledRule, RenderFormatsEveryType) {
  Harness h(R"sdr(
rule r {
  key session;
  state { time t = never; }
  on SipByeSeen {
    set t = time;
    alert info "v={value} aor={aor} d={detail} ep={endpoint} s={session} gap={since(t):sec1}s b={has_trail(\"sip\")} {{lit}}";
  }
}
)sdr");
  h.rule().on_event(h.event(EventType::kSipByeSeen, "sess-9", sec(4)), h.ctx);
  EXPECT_EQ(h.messages(),
            (std::vector<std::string>{
                "v=42 aor=alice@lab.net d=detail-text ep=10.0.0.2:16384 s=sess-9 "
                "gap=0.0s b=false {lit}"}));
}

TEST(CompiledRule, HasTrailQueriesTheTrailManager) {
  Harness h(R"sdr(
rule r {
  on SipByeSeen {
    if !has_trail("rtp") { alert info "no media trail"; }
  }
}
)sdr");
  h.rule().on_event(h.event(EventType::kSipByeSeen, "s1", sec(1)), h.ctx);
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"no media trail"}));
}

TEST(CompiledRule, AlertsFlowThroughLedgerWhenPresent) {
  core::TrailManager trails;
  core::AlertSink sink;
  obs::AlertLedger ledger;
  core::RuleContext ctx(trails, sink, &ledger);
  auto compiled = compile_ruleset_text(
      "rule r { on RtpSeqJump { alert critical \"jump {value}\"; } }", "t");
  ASSERT_TRUE(compiled.ok());
  auto rules = make_ruleset(compiled.value())->rules();

  Event e;
  e.type = EventType::kRtpSeqJump;
  e.session = "s1";
  e.time = sec(2);
  e.value = 7;
  rules[0]->on_event(e, ctx);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.records()[0].alert.message, "jump 7");
  EXPECT_EQ(ledger.records()[0].cause_type, EventType::kRtpSeqJump);
  EXPECT_EQ(sink.total_raised(), 1u);
}

TEST(CompiledRule, FreshInstancesShareTheDefNotTheState) {
  auto compiled = compile_ruleset_text(R"sdr(
rule r {
  key session;
  state { bool seen = false; }
  on SipByeSeen { if !seen { set seen = true; alert info "first"; } }
}
)sdr");
  ASSERT_TRUE(compiled.ok());
  auto a = make_ruleset(compiled.value())->rules();
  auto b = make_ruleset(compiled.value())->rules();
  std::vector<core::RulePtr> both;
  both.push_back(std::move(a[0]));
  both.push_back(std::move(b[0]));
  core::TrailManager trails;
  trails.set_rule_layout(core::Ruleset(both).layout());
  route_session(trails, "s1");
  core::AlertSink sink;
  core::RuleContext ctx(trails, sink);
  Event e;
  e.type = EventType::kSipByeSeen;
  e.session = "s1";
  ctx.set_rule(0);
  both[0]->on_event(e, ctx);
  ctx.set_rule(1);
  both[1]->on_event(e, ctx);
  EXPECT_EQ(sink.total_raised(), 2u) << "each instance owns its own slot";
  EXPECT_EQ(trails.rule_state_counts(2), (std::vector<size_t>{1, 1}));
}

TEST(CompiledRule, RecordOfAnotherRevisionStartsOver) {
  // A session moves between engines running two revisions of a `key
  // session` rule (mid-reload): the block was laid out for other slots, so
  // the adopting manager drops it and the rule starts over rather than
  // misreading it.
  auto v1 = compile_ruleset_text(R"sdr(
rule r {
  key session;
  state { bool seen = false; }
  on SipByeSeen { if seen { alert info "again"; } else { set seen = true; } }
}
)sdr");
  auto v2 = compile_ruleset_text(R"sdr(
rule r {
  key session;
  state { bool seen = false; int byes = 0; }
  on SipByeSeen { add byes; if seen { alert info "again"; } else { set seen = true; } }
}
)sdr");
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto old_rules = make_ruleset(v1.value())->rules();
  auto rules = make_ruleset(v2.value())->rules();
  core::TrailManager from, to;
  from.set_rule_layout(core::Ruleset(old_rules).layout());
  to.set_rule_layout(core::Ruleset(rules).layout());
  route_session(from, "s1");
  core::AlertSink sink;
  core::RuleContext from_ctx(from, sink), to_ctx(to, sink);
  from_ctx.set_rule(0);
  to_ctx.set_rule(0);
  Event e;
  e.type = EventType::kSipByeSeen;
  e.session = "s1";
  old_rules[0]->on_event(e, from_ctx);
  old_rules.clear();
  to.install_session(from.extract_session("s1"));
  EXPECT_EQ(to.rule_state_blocks(), 0u);

  rules[0]->on_event(e, to_ctx);
  EXPECT_EQ(sink.total_raised(), 0u) << "v2 starts from its own initial values";
  rules[0]->on_event(e, to_ctx);
  EXPECT_EQ(sink.total_raised(), 1u);
}

}  // namespace
}  // namespace scidive::ruledsl

namespace scidive::ruledsl {
namespace {

TEST(CompiledRule, WindowDropsTimesOlderThanItsSpan) {
  Harness h(R"sdr(rule r {
  state { window w over 10s; }
  on SipAuthChallenge {
    add w;
    alert info "{count(w)}";
  }
})sdr");
  for (SimTime t : {sec(0), sec(4), sec(10), sec(11), sec(25)}) {
    h.rule().on_event(h.event(EventType::kSipAuthChallenge, "s1", t), h.ctx);
  }
  // At 10s the entry at 0s is exactly `span` old and stays; at 11s it goes.
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"1", "2", "3", "3", "1"}));
  h.rule().on_event(h.event(EventType::kSipAuthChallenge, "s2", sec(26)), h.ctx);
  EXPECT_EQ(h.messages().back(), "1") << "each session has its own window";
}

TEST(CompiledRule, LongWindowKeepsExactlyItsSpan) {
  // Thousands of adds at a steady rate: the window holds the same eleven
  // times throughout, however often its dead prefix is compacted.
  Harness h(R"sdr(rule r {
  state { window w over 10ms; }
  on SipAuthChallenge { add w; if count(w) != 11 { alert info "{count(w)}"; } }
})sdr");
  for (int i = 0; i < 5000; ++i) {
    h.rule().on_event(h.event(EventType::kSipAuthChallenge, "s1", msec(i)), h.ctx);
  }
  std::vector<std::string> warmup;
  for (int i = 1; i <= 10; ++i) warmup.push_back(std::to_string(i));
  EXPECT_EQ(h.messages(), warmup);
}

TEST(CompiledRule, StringSetCountsDistinctValues) {
  Harness h(R"sdr(rule r {
  state { stringset seen; }
  on SipAuthFailure {
    add seen detail;
    alert info "{count(seen)}";
  }
})sdr");
  for (const char* detail : {"a", "b", "a", "c", "b"}) {
    core::Event e = h.event(EventType::kSipAuthFailure, "s1", sec(1));
    e.detail = detail;
    h.rule().on_event(e, h.ctx);
  }
  EXPECT_EQ(h.messages(), (std::vector<std::string>{"1", "2", "2", "3", "3"}));
}

}  // namespace
}  // namespace scidive::ruledsl
