// Parser: grammar structure, keyword/severity validation, and the bounded
// recursion that keeps pathological nesting from overflowing the stack.
#include "ruledsl/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace scidive::ruledsl {
namespace {

RulesetAst parse_ok(std::string_view text) {
  auto ast = parse_ruleset(text, "test.sdr");
  EXPECT_TRUE(ast.ok()) << ast.error().to_string();
  return ast.ok() ? std::move(ast.value()) : RulesetAst{};
}

std::string parse_error(std::string_view text) {
  auto ast = parse_ruleset(text, "test.sdr");
  EXPECT_FALSE(ast.ok()) << "expected a parse error";
  return ast.ok() ? "" : ast.error().message;
}

constexpr std::string_view kFullRule = R"sdr(
rule full {
  key aor;
  state {
    time seen_at = never;
    int hits = 0;
  }
  on SipRegisterSeen, ImMessageSeen {
    set seen_at = time;
    if value >= 3 {
      alert critical "v={value}";
    } else {
      set hits = value;
    }
  }
}
)sdr";

TEST(RuledslParser, FullRuleStructure) {
  RulesetAst ast = parse_ok(kFullRule);
  ASSERT_EQ(ast.rules.size(), 1u);
  const RuleNode& rule = ast.rules[0];
  EXPECT_EQ(rule.name, "full");
  EXPECT_EQ(rule.key, "aor");
  ASSERT_EQ(rule.slots.size(), 2u);
  EXPECT_EQ(rule.slots[0].type_name, "time");
  EXPECT_EQ(rule.slots[0].name, "seen_at");
  ASSERT_TRUE(rule.slots[0].init.has_value());
  EXPECT_EQ(rule.slots[0].init->kind, ExprNode::Kind::kNeverLit);
  ASSERT_EQ(rule.handlers.size(), 1u);
  const HandlerNode& handler = rule.handlers[0];
  EXPECT_EQ(handler.event_names,
            (std::vector<std::string>{"SipRegisterSeen", "ImMessageSeen"}));
  ASSERT_EQ(handler.body.size(), 2u);
  EXPECT_EQ(handler.body[0].kind, StmtNode::Kind::kSet);
  const StmtNode& cond = handler.body[1];
  EXPECT_EQ(cond.kind, StmtNode::Kind::kIf);
  ASSERT_EQ(cond.then_body.size(), 1u);
  EXPECT_EQ(cond.then_body[0].kind, StmtNode::Kind::kAlert);
  EXPECT_EQ(cond.then_body[0].severity, "critical");
  EXPECT_EQ(cond.then_body[0].template_text, "v={value}");
  ASSERT_EQ(cond.else_body.size(), 1u);
}

TEST(RuledslParser, DefaultKeyIsSession) {
  RulesetAst ast = parse_ok("rule r { on SipByeSeen { alert info \"x\"; } }");
  ASSERT_EQ(ast.rules.size(), 1u);
  EXPECT_EQ(ast.rules[0].key, "session");
}

TEST(RuledslParser, OperatorPrecedence) {
  // a == b && c < d || !e parses as ((a==b) && (c<d)) || (!e).
  RulesetAst ast = parse_ok(
      "rule r { on SipByeSeen { if a == b && c < d || !e { alert info \"x\"; } } }");
  const ExprNode& expr = *ast.rules[0].handlers[0].body[0].expr;
  ASSERT_EQ(expr.kind, ExprNode::Kind::kBinary);
  EXPECT_EQ(expr.text, "||");
  ASSERT_EQ(expr.children.size(), 2u);
  EXPECT_EQ(expr.children[0].text, "&&");
  EXPECT_EQ(expr.children[1].kind, ExprNode::Kind::kNot);
  EXPECT_EQ(expr.children[0].children[0].text, "==");
  EXPECT_EQ(expr.children[0].children[1].text, "<");
}

TEST(RuledslParser, CallsWithArguments) {
  RulesetAst ast = parse_ok(
      "rule r { on SipByeSeen { if within(t, 2s) && has_trail(\"sip\") "
      "{ alert info \"x\"; } } }");
  const ExprNode& expr = *ast.rules[0].handlers[0].body[0].expr;
  const ExprNode& within = expr.children[0];
  ASSERT_EQ(within.kind, ExprNode::Kind::kCall);
  EXPECT_EQ(within.text, "within");
  ASSERT_EQ(within.children.size(), 2u);
  EXPECT_EQ(within.children[1].kind, ExprNode::Kind::kDurationLit);
}

TEST(RuledslParser, RejectsMalformedStructure) {
  EXPECT_FALSE(parse_error("rule r {").empty());                       // unterminated
  EXPECT_FALSE(parse_error("rule r { on { } }").empty());              // no event name
  EXPECT_FALSE(parse_error("rule { on E { } }").empty());              // no rule name
  EXPECT_FALSE(parse_error("rule r { key dialog; }").empty());         // bad key kind
  EXPECT_FALSE(parse_error("junk").empty());                           // not a rule
  EXPECT_FALSE(
      parse_error("rule r { on E { set x = 1 } }").empty());           // missing ';'
  EXPECT_FALSE(
      parse_error("rule r { on E { alert shouting \"m\"; } }").empty());  // severity
}

TEST(RuledslParser, RejectsDuplicateKeyAndStateBlocks) {
  EXPECT_FALSE(parse_error("rule r { key aor; key session; }").empty());
  EXPECT_FALSE(parse_error("rule r { state { } state { } }").empty());
}

TEST(RuledslParser, BoundedExpressionDepth) {
  auto nested = [](int depth) {
    std::string expr;
    for (int i = 0; i < depth; ++i) expr += "!(";
    expr += "true";
    for (int i = 0; i < depth; ++i) expr += ")";
    return "rule r { on E { if " + expr + " { alert info \"x\"; } } }";
  };
  EXPECT_TRUE(parse_ruleset(nested(10), "t").ok());
  std::string message = parse_error(nested(200));
  EXPECT_NE(message.find("deep"), std::string::npos) << message;
}

TEST(RuledslParser, DiagnosticsAreSourceLocated) {
  std::string message = parse_error("rule r {\n  key dialog;\n}");
  EXPECT_NE(message.find("test.sdr:2:"), std::string::npos) << message;
}

TEST(RuledslParser, ExpressionSnippets) {
  auto expr = parse_expression_snippet("since(last_change)", "tmpl", {7, 3});
  ASSERT_TRUE(expr.ok()) << expr.error().to_string();
  EXPECT_EQ(expr.value().kind, ExprNode::Kind::kCall);
  EXPECT_EQ(expr.value().loc.line, 7u);

  auto bad = parse_expression_snippet("a ||", "tmpl", {7, 3});
  EXPECT_FALSE(bad.ok());
  // Trailing garbage after a complete expression is rejected too.
  EXPECT_FALSE(parse_expression_snippet("a b", "tmpl", {1, 1}).ok());
}

}  // namespace
}  // namespace scidive::ruledsl

namespace scidive::ruledsl {
namespace {

TEST(RuledslParser, ParamsWindowSpansAndAddValues) {
  RulesetAst ast = parse_ok(R"sdr(rule r {
  param duration span = 30s;
  state { window w over span; stringset s; }
  on SipAuthFailure { add w; add s detail; }
})sdr");
  ASSERT_EQ(ast.rules.size(), 1u);
  const RuleNode& rule = ast.rules[0];
  ASSERT_EQ(rule.params.size(), 1u);
  EXPECT_EQ(rule.params[0].type_name, "duration");
  EXPECT_EQ(rule.params[0].name, "span");
  EXPECT_EQ(rule.params[0].init.kind, ExprNode::Kind::kDurationLit);
  ASSERT_EQ(rule.slots.size(), 2u);
  ASSERT_TRUE(rule.slots[0].span.has_value());
  EXPECT_EQ(rule.slots[0].span->text, "span");
  EXPECT_FALSE(rule.slots[1].span.has_value());
  const std::vector<StmtNode>& body = rule.handlers.at(0).body;
  ASSERT_EQ(body.size(), 2u);
  EXPECT_FALSE(body[0].expr.has_value());
  ASSERT_TRUE(body[1].expr.has_value());
  EXPECT_EQ(body[1].expr->text, "detail");

  auto missing_default = parse_ruleset("rule r { param int n; on SipByeSeen { } }", "t.sdr");
  EXPECT_FALSE(missing_default.ok());
}

}  // namespace
}  // namespace scidive::ruledsl
