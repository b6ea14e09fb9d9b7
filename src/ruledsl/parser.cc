#include "ruledsl/parser.h"

#include "common/strings.h"

namespace scidive::ruledsl {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string_view filename)
      : tokens_(std::move(tokens)), filename_(filename) {}

  Result<RulesetAst> parse_ruleset() {
    RulesetAst ast;
    while (!at(TokenKind::kEof)) {
      if (!at_keyword("rule")) return err(peek().loc, "expected 'rule'");
      auto rule = parse_rule();
      if (!rule.ok()) return rule.error();
      ast.rules.push_back(std::move(rule).value());
    }
    return ast;
  }

  Result<ExprNode> parse_expression_toplevel() {
    auto e = parse_expr();
    if (!e.ok()) return e.error();
    if (!at(TokenKind::kEof)) {
      return err(peek().loc, str::format("unexpected %s after expression",
                                         std::string(token_kind_name(peek().kind)).c_str()));
    }
    return e;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  bool at(TokenKind k) const { return peek().kind == k; }
  bool at_keyword(std::string_view kw) const {
    return peek().kind == TokenKind::kIdent && peek().text == kw;
  }
  Token take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Error err(SourceLoc loc, const std::string& what) const {
    return Error{Errc::kMalformed,
                 str::format("%.*s:%u:%u: %s", static_cast<int>(filename_.size()),
                             filename_.data(), loc.line, loc.col, what.c_str())};
  }

  Status expect(TokenKind k, const char* context) {
    if (!at(k)) {
      return err(peek().loc,
                 str::format("expected %s %s, got %s",
                             std::string(token_kind_name(k)).c_str(), context,
                             std::string(token_kind_name(peek().kind)).c_str()));
    }
    take();
    return Status::Ok();
  }

  Result<std::string> expect_ident(const char* context) {
    if (!at(TokenKind::kIdent)) {
      return err(peek().loc,
                 str::format("expected identifier %s, got %s", context,
                             std::string(token_kind_name(peek().kind)).c_str()));
    }
    return take().text;
  }

  Result<RuleNode> parse_rule() {
    RuleNode rule;
    rule.loc = peek().loc;
    take();  // 'rule'
    auto name = expect_ident("(rule name)");
    if (!name.ok()) return name.error();
    rule.name = std::move(name).value();
    if (auto s = expect(TokenKind::kLBrace, "to open the rule body"); !s.ok()) return s.error();

    bool saw_key = false;
    bool saw_state = false;
    while (!at(TokenKind::kRBrace)) {
      if (at_keyword("key")) {
        if (saw_key) return err(peek().loc, "duplicate 'key' declaration");
        saw_key = true;
        take();
        rule.key_loc = peek().loc;
        auto key = expect_ident("after 'key' (session or aor)");
        if (!key.ok()) return key.error();
        rule.key = std::move(key).value();
        if (rule.key != "session" && rule.key != "aor") {
          return err(rule.key_loc,
                     str::format("unknown key '%s' (expected session or aor)", rule.key.c_str()));
        }
        if (auto s = expect(TokenKind::kSemi, "after the key declaration"); !s.ok())
          return s.error();
      } else if (at_keyword("param")) {
        auto param = parse_param();
        if (!param.ok()) return param.error();
        rule.params.push_back(std::move(param).value());
      } else if (at_keyword("state")) {
        if (saw_state) return err(peek().loc, "duplicate 'state' block");
        saw_state = true;
        take();
        if (auto s = expect(TokenKind::kLBrace, "to open the state block"); !s.ok())
          return s.error();
        while (!at(TokenKind::kRBrace)) {
          auto slot = parse_slot();
          if (!slot.ok()) return slot.error();
          rule.slots.push_back(std::move(slot).value());
        }
        take();  // '}'
      } else if (at_keyword("on")) {
        auto handler = parse_handler();
        if (!handler.ok()) return handler.error();
        rule.handlers.push_back(std::move(handler).value());
      } else {
        return err(peek().loc, "expected 'key', 'param', 'state', 'on' or '}' in rule body");
      }
    }
    take();  // '}'
    return rule;
  }

  Result<ParamNode> parse_param() {
    ParamNode param;
    param.loc = peek().loc;
    take();  // 'param'
    auto type = expect_ident("(parameter type)");
    if (!type.ok()) return type.error();
    param.type_name = std::move(type).value();
    auto name = expect_ident("(parameter name)");
    if (!name.ok()) return name.error();
    param.name = std::move(name).value();
    if (auto s = expect(TokenKind::kAssign, "after the parameter name (its default)"); !s.ok())
      return s.error();
    auto init = parse_expr();
    if (!init.ok()) return init.error();
    param.init = std::move(init).value();
    if (auto s = expect(TokenKind::kSemi, "after the parameter declaration"); !s.ok())
      return s.error();
    return param;
  }

  Result<SlotNode> parse_slot() {
    SlotNode slot;
    slot.loc = peek().loc;
    auto type = expect_ident("(slot type)");
    if (!type.ok()) return type.error();
    slot.type_name = std::move(type).value();
    auto name = expect_ident("(slot name)");
    if (!name.ok()) return name.error();
    slot.name = std::move(name).value();
    if (at_keyword("over")) {
      take();
      auto span = parse_expr();
      if (!span.ok()) return span.error();
      slot.span = std::move(span).value();
    }
    if (at(TokenKind::kAssign)) {
      take();
      auto init = parse_expr();
      if (!init.ok()) return init.error();
      slot.init = std::move(init).value();
    }
    if (auto s = expect(TokenKind::kSemi, "after the slot declaration"); !s.ok())
      return s.error();
    return slot;
  }

  Result<HandlerNode> parse_handler() {
    HandlerNode handler;
    handler.loc = peek().loc;
    take();  // 'on'
    for (;;) {
      SourceLoc loc = peek().loc;
      auto name = expect_ident("(event name)");
      if (!name.ok()) return name.error();
      handler.event_names.push_back(std::move(name).value());
      handler.event_locs.push_back(loc);
      if (!at(TokenKind::kComma)) break;
      take();
    }
    if (auto s = expect(TokenKind::kLBrace, "to open the handler body"); !s.ok())
      return s.error();
    auto body = parse_stmts();
    if (!body.ok()) return body.error();
    handler.body = std::move(body).value();
    if (auto s = expect(TokenKind::kRBrace, "to close the handler body"); !s.ok())
      return s.error();
    return handler;
  }

  Result<std::vector<StmtNode>> parse_stmts() {
    std::vector<StmtNode> stmts;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof)) {
      auto stmt = parse_stmt();
      if (!stmt.ok()) return stmt.error();
      stmts.push_back(std::move(stmt).value());
    }
    return stmts;
  }

  Result<StmtNode> parse_stmt() {
    StmtNode stmt;
    stmt.loc = peek().loc;
    if (at_keyword("set")) {
      take();
      stmt.kind = StmtNode::Kind::kSet;
      auto target = expect_ident("after 'set' (slot name)");
      if (!target.ok()) return target.error();
      stmt.target = std::move(target).value();
      if (auto s = expect(TokenKind::kAssign, "after the slot name"); !s.ok()) return s.error();
      auto value = parse_expr();
      if (!value.ok()) return value.error();
      stmt.expr = std::move(value).value();
      if (auto s = expect(TokenKind::kSemi, "after the set statement"); !s.ok())
        return s.error();
      return stmt;
    }
    if (at_keyword("add")) {
      take();
      stmt.kind = StmtNode::Kind::kAdd;
      auto target = expect_ident("after 'add' (slot name)");
      if (!target.ok()) return target.error();
      stmt.target = std::move(target).value();
      if (!at(TokenKind::kSemi)) {
        auto value = parse_expr();
        if (!value.ok()) return value.error();
        stmt.expr = std::move(value).value();
      }
      if (auto s = expect(TokenKind::kSemi, "after the add statement"); !s.ok())
        return s.error();
      return stmt;
    }
    if (at_keyword("if")) {
      if (depth_ >= kMaxParseDepth) return err(peek().loc, "nesting too deep");
      ++depth_;
      take();
      stmt.kind = StmtNode::Kind::kIf;
      auto cond = parse_expr();
      if (!cond.ok()) {
        --depth_;
        return cond.error();
      }
      stmt.expr = std::move(cond).value();
      if (auto s = expect(TokenKind::kLBrace, "to open the if body"); !s.ok()) {
        --depth_;
        return s.error();
      }
      auto then_body = parse_stmts();
      if (!then_body.ok()) {
        --depth_;
        return then_body.error();
      }
      stmt.then_body = std::move(then_body).value();
      if (auto s = expect(TokenKind::kRBrace, "to close the if body"); !s.ok()) {
        --depth_;
        return s.error();
      }
      if (at_keyword("else")) {
        take();
        if (auto s = expect(TokenKind::kLBrace, "to open the else body"); !s.ok()) {
          --depth_;
          return s.error();
        }
        auto else_body = parse_stmts();
        if (!else_body.ok()) {
          --depth_;
          return else_body.error();
        }
        stmt.else_body = std::move(else_body).value();
        if (auto s = expect(TokenKind::kRBrace, "to close the else body"); !s.ok()) {
          --depth_;
          return s.error();
        }
      }
      --depth_;
      return stmt;
    }
    if (at_keyword("alert")) {
      take();
      stmt.kind = StmtNode::Kind::kAlert;
      auto severity = expect_ident("after 'alert' (critical, warning or info)");
      if (!severity.ok()) return severity.error();
      stmt.severity = std::move(severity).value();
      if (stmt.severity != "critical" && stmt.severity != "warning" &&
          stmt.severity != "info") {
        return err(stmt.loc, str::format("unknown severity '%s' (expected critical, warning "
                                         "or info)",
                                         stmt.severity.c_str()));
      }
      if (!at(TokenKind::kString)) {
        return err(peek().loc, "expected a string template after the severity");
      }
      stmt.template_text = take().text;
      if (auto s = expect(TokenKind::kSemi, "after the alert statement"); !s.ok())
        return s.error();
      return stmt;
    }
    if (at_keyword("verdict")) {
      take();
      stmt.kind = StmtNode::Kind::kVerdict;
      auto action = expect_ident("after 'verdict' (drop, quarantine or rate_limit)");
      if (!action.ok()) return action.error();
      stmt.severity = std::move(action).value();
      if (stmt.severity != "drop" && stmt.severity != "quarantine" &&
          stmt.severity != "rate_limit") {
        return err(stmt.loc, str::format("unknown verdict action '%s' (expected drop, "
                                         "quarantine or rate_limit)",
                                         stmt.severity.c_str()));
      }
      if (!at(TokenKind::kString)) {
        return err(peek().loc, "expected a string template after the verdict action");
      }
      stmt.template_text = take().text;
      if (auto s = expect(TokenKind::kSemi, "after the verdict statement"); !s.ok())
        return s.error();
      return stmt;
    }
    return err(stmt.loc, "expected 'set', 'add', 'if', 'alert' or 'verdict'");
  }

  Result<ExprNode> parse_expr() { return parse_or(); }

  Result<ExprNode> parse_or() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs;
    while (at(TokenKind::kOr)) {
      SourceLoc loc = take().loc;
      auto rhs = parse_and();
      if (!rhs.ok()) return rhs;
      ExprNode node;
      node.kind = ExprNode::Kind::kBinary;
      node.loc = loc;
      node.text = "||";
      node.children.push_back(std::move(lhs).value());
      node.children.push_back(std::move(rhs).value());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprNode> parse_and() {
    auto lhs = parse_cmp();
    if (!lhs.ok()) return lhs;
    while (at(TokenKind::kAnd)) {
      SourceLoc loc = take().loc;
      auto rhs = parse_cmp();
      if (!rhs.ok()) return rhs;
      ExprNode node;
      node.kind = ExprNode::Kind::kBinary;
      node.loc = loc;
      node.text = "&&";
      node.children.push_back(std::move(lhs).value());
      node.children.push_back(std::move(rhs).value());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprNode> parse_cmp() {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    const char* op = nullptr;
    switch (peek().kind) {
      case TokenKind::kEq: op = "=="; break;
      case TokenKind::kNe: op = "!="; break;
      case TokenKind::kLt: op = "<"; break;
      case TokenKind::kLe: op = "<="; break;
      case TokenKind::kGt: op = ">"; break;
      case TokenKind::kGe: op = ">="; break;
      default: return lhs;
    }
    SourceLoc loc = take().loc;
    auto rhs = parse_unary();
    if (!rhs.ok()) return rhs;
    ExprNode node;
    node.kind = ExprNode::Kind::kBinary;
    node.loc = loc;
    node.text = op;
    node.children.push_back(std::move(lhs).value());
    node.children.push_back(std::move(rhs).value());
    return node;
  }

  Result<ExprNode> parse_unary() {
    if (at(TokenKind::kNot)) {
      if (depth_ >= kMaxParseDepth) return err(peek().loc, "nesting too deep");
      ++depth_;
      SourceLoc loc = take().loc;
      auto operand = parse_unary();
      --depth_;
      if (!operand.ok()) return operand;
      ExprNode node;
      node.kind = ExprNode::Kind::kNot;
      node.loc = loc;
      node.children.push_back(std::move(operand).value());
      return node;
    }
    return parse_primary();
  }

  Result<ExprNode> parse_primary() {
    ExprNode node;
    node.loc = peek().loc;
    switch (peek().kind) {
      case TokenKind::kInt:
        node.kind = ExprNode::Kind::kIntLit;
        node.int_value = take().int_value;
        return node;
      case TokenKind::kDuration:
        node.kind = ExprNode::Kind::kDurationLit;
        node.int_value = take().int_value;
        return node;
      case TokenKind::kString:
        node.kind = ExprNode::Kind::kStringLit;
        node.text = take().text;
        return node;
      case TokenKind::kLParen: {
        if (depth_ >= kMaxParseDepth) return err(peek().loc, "nesting too deep");
        ++depth_;
        take();
        auto inner = parse_expr();
        if (!inner.ok()) {
          --depth_;
          return inner;
        }
        auto s = expect(TokenKind::kRParen, "to close the parenthesized expression");
        --depth_;
        if (!s.ok()) return s.error();
        return inner;
      }
      case TokenKind::kIdent: {
        Token tok = take();
        if (tok.text == "true" || tok.text == "false") {
          node.kind = ExprNode::Kind::kBoolLit;
          node.int_value = tok.text == "true" ? 1 : 0;
          return node;
        }
        if (tok.text == "never") {
          node.kind = ExprNode::Kind::kNeverLit;
          return node;
        }
        if (at(TokenKind::kLParen)) {
          if (depth_ >= kMaxParseDepth) return err(peek().loc, "nesting too deep");
          ++depth_;
          take();
          node.kind = ExprNode::Kind::kCall;
          node.text = std::move(tok.text);
          if (!at(TokenKind::kRParen)) {
            for (;;) {
              auto arg = parse_expr();
              if (!arg.ok()) {
                --depth_;
                return arg;
              }
              node.children.push_back(std::move(arg).value());
              if (!at(TokenKind::kComma)) break;
              take();
            }
          }
          auto s = expect(TokenKind::kRParen, "to close the argument list");
          --depth_;
          if (!s.ok()) return s.error();
          return node;
        }
        node.kind = ExprNode::Kind::kIdent;
        node.text = std::move(tok.text);
        return node;
      }
      default:
        return err(peek().loc,
                   str::format("expected an expression, got %s",
                               std::string(token_kind_name(peek().kind)).c_str()));
    }
  }

  std::vector<Token> tokens_;
  std::string_view filename_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<RulesetAst> parse_ruleset(std::string_view text, std::string_view filename) {
  auto tokens = lex(text, filename);
  if (!tokens.ok()) return tokens.error();
  Parser parser(std::move(tokens).value(), filename);
  return parser.parse_ruleset();
}

Result<ExprNode> parse_expression_snippet(std::string_view text, std::string_view filename,
                                          SourceLoc loc_base) {
  auto tokens = lex(text, filename);
  if (!tokens.ok()) return tokens.error();
  // Re-anchor snippet-relative locations at the template's own position so
  // hole diagnostics point at the alert statement, not at line 1 of a
  // phantom file.
  auto toks = std::move(tokens).value();
  for (Token& t : toks) {
    t.loc = loc_base;
  }
  Parser parser(std::move(toks), filename);
  return parser.parse_expression_toplevel();
}

}  // namespace scidive::ruledsl
