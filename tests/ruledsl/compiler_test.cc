// Compiler: lowering (subscription masks, handler ranges, slot layout, RPN
// programs) and the static type system that rejects every malformed ruleset
// with a located diagnostic.
#include "ruledsl/compiler.h"

#include <gtest/gtest.h>

#include <string>

#include "ruledsl/loader.h"
#include "scidive/event.h"

namespace scidive::ruledsl {
namespace {

using core::EventType;
using core::event_mask;

CompiledRuleset compile_ok(std::string_view text) {
  auto compiled = compile_ruleset_text(text, "test.sdr");
  EXPECT_TRUE(compiled.ok()) << compiled.error().to_string();
  return compiled.ok() ? std::move(compiled.value()) : CompiledRuleset{};
}

std::string compile_error(std::string_view text) {
  auto compiled = compile_ruleset_text(text, "test.sdr");
  EXPECT_FALSE(compiled.ok()) << "expected a compile error";
  return compiled.ok() ? "" : compiled.error().message;
}

TEST(RuledslCompiler, SubscriptionMaskAndHandlerRanges) {
  CompiledRuleset ruleset = compile_ok(R"sdr(
rule r {
  on RtpSeqJump { alert info "a"; }
  on RtpUnexpectedSource, NonRtpOnMediaPort { alert info "b"; }
}
)sdr");
  ASSERT_EQ(ruleset.rules.size(), 1u);
  const CompiledRuleDef& def = *ruleset.rules[0];
  EXPECT_EQ(def.subscriptions,
            event_mask(EventType::kRtpSeqJump, EventType::kRtpUnexpectedSource,
                       EventType::kNonRtpOnMediaPort));

  auto range = [&](EventType t) { return def.handlers[static_cast<size_t>(t)]; };
  EXPECT_LT(range(EventType::kRtpSeqJump).begin, range(EventType::kRtpSeqJump).end);
  // The two comma-listed events share one statement range.
  EXPECT_EQ(range(EventType::kRtpUnexpectedSource).begin,
            range(EventType::kNonRtpOnMediaPort).begin);
  // Unsubscribed types have empty ranges.
  EXPECT_EQ(range(EventType::kSipByeSeen).begin, range(EventType::kSipByeSeen).end);
}

TEST(RuledslCompiler, SlotLayoutAndDefaults) {
  CompiledRuleset ruleset = compile_ok(R"sdr(
rule r {
  key aor;
  state {
    time t;
    int n = 41;
    string s = "hello";
    string s2;
    bool b = true;
  }
  on SipRegisterSeen { set t = time; }
}
)sdr");
  const CompiledRuleDef& def = *ruleset.rules[0];
  EXPECT_EQ(def.key, KeyKind::kAor);
  ASSERT_EQ(def.slots.size(), 5u);
  EXPECT_EQ(def.slots[0].type, ValType::kTime);
  EXPECT_EQ(def.slots[0].init, kNever) << "time slots default to never";
  EXPECT_EQ(def.slots[1].init, 41);
  EXPECT_EQ(def.slots[2].type, ValType::kString);
  EXPECT_EQ(def.slots[2].str_init, "hello");
  EXPECT_EQ(def.slots[2].str_index, 0u);
  EXPECT_EQ(def.slots[3].str_index, 1u);
  EXPECT_EQ(def.num_string_slots, 2u);
  EXPECT_EQ(def.slots[4].init, 1);
}

TEST(RuledslCompiler, BranchTargetsSkipElse) {
  CompiledRuleset ruleset = compile_ok(R"sdr(
rule r {
  key session;
  state { bool flag = false; }
  on SipByeSeen {
    if flag { alert info "then"; } else { set flag = true; }
    alert info "after";
  }
}
)sdr");
  const CompiledRuleDef& def = *ruleset.rules[0];
  // Lowering: [branch-if-false cond -> else] [alert then] [jump -> end]
  //           [set flag] [alert after]
  ASSERT_EQ(def.stmts.size(), 5u);
  EXPECT_EQ(def.stmts[0].kind, StmtOpKind::kBranchIfFalse);
  EXPECT_EQ(def.stmts[0].target, 3u);
  EXPECT_EQ(def.stmts[1].kind, StmtOpKind::kAlert);
  EXPECT_EQ(def.stmts[2].kind, StmtOpKind::kJump);
  EXPECT_EQ(def.stmts[2].target, 4u);
  EXPECT_EQ(def.stmts[3].kind, StmtOpKind::kSetSlot);
  EXPECT_EQ(def.stmts[4].kind, StmtOpKind::kAlert);
}

TEST(RuledslCompiler, TemplateLoweringAndEscapes) {
  CompiledRuleset ruleset = compile_ok(R"sdr(
rule r {
  key session;
  state { time t = never; }
  on SipByeSeen {
    alert warning "{{x}} gap={since(t):sec1}s v={value}";
  }
}
)sdr");
  const CompiledRuleDef& def = *ruleset.rules[0];
  ASSERT_EQ(def.alerts.size(), 1u);
  const AlertTemplate& tmpl = def.alerts[0];
  EXPECT_EQ(tmpl.severity, core::Severity::kWarning);
  ASSERT_GE(tmpl.pieces.size(), 4u);
  EXPECT_EQ(tmpl.pieces[0].literal, "{x} gap=");
  EXPECT_GE(tmpl.pieces[1].expr_index, 0);
  EXPECT_EQ(tmpl.pieces[1].format, AlertPiece::Format::kSec1);
  EXPECT_EQ(tmpl.pieces[2].literal, "s v=");
  EXPECT_EQ(tmpl.pieces[3].format, AlertPiece::Format::kDefault);
}

TEST(RuledslCompiler, EvalStackIsBounded) {
  // A right-nested boolean chain holds one operand per level: depth 40
  // overflows the fixed 32-slot evaluation stack and must be rejected at
  // compile time, never at match time.
  std::string expr = "true";
  for (int i = 0; i < 40; ++i) expr = "true && (" + expr + ")";
  std::string text = "rule r { on SipByeSeen { if " + expr + " { alert info \"x\"; } } }";
  EXPECT_FALSE(compile_error(text).empty());
}

TEST(RuledslCompiler, RejectsUnknownNamesAndDuplicates) {
  EXPECT_FALSE(compile_error("rule r { on NoSuchEvent { alert info \"x\"; } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { alert info \"a\"; } on SipByeSeen { alert info \"b\"; } }")
                   .empty());
  EXPECT_FALSE(compile_error("rule r { on SipByeSeen { set ghost = 1; } }").empty());
  EXPECT_FALSE(compile_error("rule r { on SipByeSeen { add ghost; } }").empty());
  EXPECT_FALSE(compile_error("rule r { state { blob x; } on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { state { int x; int x; } on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { state { int value; } on SipByeSeen { } }").empty())
      << "slots may not shadow event fields";
  EXPECT_FALSE(compile_error(
      "rule a { on SipByeSeen { } } rule a { on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if nope(1) { alert info \"x\"; } } }").empty());
}

TEST(RuledslCompiler, RejectsTypeErrors) {
  // set: int slot = string
  EXPECT_FALSE(compile_error(
      "rule r { state { int n; } on SipByeSeen { set n = \"s\"; } }").empty());
  // add on a slot that is neither an eventset nor an int counter
  EXPECT_FALSE(compile_error(
      "rule r { state { string s; } on SipByeSeen { add s; } }").empty());
  // if over a non-bool
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if value { alert info \"x\"; } } }").empty());
  // ordered comparison of strings
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if aor < \"z\" { alert info \"x\"; } } }").empty());
  // equality on eventsets
  EXPECT_FALSE(compile_error(
      "rule r { state { eventset e; } on SipByeSeen { if e == e { alert info \"x\"; } } }")
                   .empty());
  // && over non-bools
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if value && value { alert info \"x\"; } } }").empty());
  // mixed-type comparison
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if value == aor { alert info \"x\"; } } }").empty());
  // since() over a non-time
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if since(value) < 1s { alert info \"x\"; } } }").empty());
  // within() needs (time, duration)
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if within(time, 5) { alert info \"x\"; } } }").empty());
  // count() needs an eventset
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if count(value) >= 1 { alert info \"x\"; } } }").empty());
  // addr() needs an endpoint
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if addr(aor) == addr(endpoint) { alert info \"x\"; } } }")
                   .empty());
  // has_trail() takes a known protocol literal
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { if has_trail(\"smtp\") { alert info \"x\"; } } }").empty());
}

TEST(RuledslCompiler, RejectsTemplateErrors) {
  // Unterminated hole.
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { alert info \"{value\"; } }").empty());
  // Unknown format.
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { alert info \"{value:hex}\"; } }").empty());
  // sec1 requires a duration.
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { alert info \"{value:sec1}\"; } }").empty());
  // Malformed expression inside a hole.
  EXPECT_FALSE(compile_error(
      "rule r { on SipByeSeen { alert info \"{value ==}\"; } }").empty());
}

TEST(RuledslCompiler, DiagnosticsAreSourceLocated) {
  std::string message =
      compile_error("rule r {\n  on NoSuchEvent {\n    alert info \"x\";\n  }\n}");
  EXPECT_NE(message.find("test.sdr:2:"), std::string::npos) << message;
}

TEST(RuledslCompiler, DumpListsEveryRule) {
  CompiledRuleset ruleset = compile_ok(
      "rule one { on SipByeSeen { alert info \"x\"; } }\n"
      "rule two { on RtpSeqJump { alert info \"y\"; } }");
  std::string dump = ruleset.dump();
  EXPECT_NE(dump.find("one"), std::string::npos);
  EXPECT_NE(dump.find("two"), std::string::npos);
}

}  // namespace
}  // namespace scidive::ruledsl

namespace scidive::ruledsl {
namespace {

constexpr std::string_view kParamRule = R"sdr(
rule r {
  param int threshold = 3;
  param duration span = 10s;
  state {
    window recent over span;
    stringset seen;
  }
  on SipAuthFailure {
    add recent;
    add seen detail;
    if count(recent) >= threshold && count(seen) >= threshold {
      alert info "{count(seen)} within {span:sec1}s";
    }
  }
}
)sdr";

TEST(RuledslCompiler, ParamsFoldToConstantsAndTakeOverrides) {
  CompiledRuleset defaults = compile_ok(kParamRule);
  ASSERT_EQ(defaults.rules.size(), 1u);
  const CompiledRuleDef& def = *defaults.rules[0];
  ASSERT_EQ(def.slots.size(), 2u);
  EXPECT_EQ(def.slots[0].type, ValType::kWindow);
  EXPECT_EQ(def.slots[0].span, sec(10));
  EXPECT_EQ(def.slots[1].type, ValType::kStringSet);
  EXPECT_EQ(def.num_windows, 1u);
  EXPECT_EQ(def.num_sets, 1u);
  EXPECT_NE(defaults.dump().find("push int 3"), std::string::npos) << defaults.dump();

  auto overridden =
      compile_ruleset_text(kParamRule, "test.sdr", {{"r.threshold", 7}, {"r.span", sec(2)}});
  ASSERT_TRUE(overridden.ok()) << overridden.error().to_string();
  EXPECT_EQ(overridden.value().rules[0]->slots[0].span, sec(2));
  EXPECT_NE(overridden.value().dump().find("push int 7"), std::string::npos);

  auto unknown = compile_ruleset_text(kParamRule, "test.sdr", {{"r.nope", 1}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("unknown parameter 'r.nope'"), std::string::npos)
      << unknown.error().message;
  EXPECT_FALSE(compile_ruleset_text(kParamRule, "test.sdr", {{"other.threshold", 1}}).ok())
      << "an override names rule.param exactly";
}

TEST(RuledslCompiler, RejectsBadParamsWindowsAndSets) {
  // Parameter types, defaults and names.
  EXPECT_FALSE(compile_error("rule r { param string s = \"x\"; on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error("rule r { param int n = 5s; on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error("rule r { param int n = value; on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error("rule r { param int time = 1; on SipByeSeen { } }").empty());
  EXPECT_FALSE(
      compile_error("rule r { param int n = 1; param int n = 2; on SipByeSeen { } }").empty());
  EXPECT_FALSE(
      compile_error("rule r { param int n = 1; state { int n; } on SipByeSeen { } }").empty());
  // A window needs a constant duration span; nothing else takes one.
  EXPECT_FALSE(compile_error("rule r { state { window w; } on SipByeSeen { } }").empty());
  EXPECT_FALSE(compile_error("rule r { state { window w over 5; } on SipByeSeen { } }").empty());
  EXPECT_FALSE(
      compile_error("rule r { param int n = 1; state { window w over n; } on SipByeSeen { } }")
          .empty());
  EXPECT_FALSE(compile_error("rule r { state { int n over 1s; } on SipByeSeen { } }").empty());
  EXPECT_FALSE(
      compile_error("rule r { state { stringset s = \"x\"; } on SipByeSeen { } }").empty());
  // Collections are read with count() only and filled with add.
  EXPECT_FALSE(compile_error(
      "rule r { state { window w over 1s; } on SipByeSeen { if w == w { } } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { state { stringset s; } on SipByeSeen { alert info \"{s}\"; } }").empty());
  EXPECT_FALSE(compile_error(
      "rule r { state { stringset s; } on SipByeSeen { set s = aor; } }").empty());
  EXPECT_FALSE(compile_error("rule r { state { stringset s; } on SipByeSeen { add s; } }")
                   .empty());
  EXPECT_FALSE(compile_error("rule r { state { stringset s; } on SipByeSeen { add s value; } }")
                   .empty());
  EXPECT_FALSE(compile_error(
      "rule r { state { window w over 1s; } on SipByeSeen { add w time; } }").empty());
  EXPECT_FALSE(compile_error("rule r { state { int n; } on SipByeSeen { add n 1; } }").empty());
}

}  // namespace
}  // namespace scidive::ruledsl
