// AST for the .sdr ruleset language — the parser's output, the compiler's
// input. Nodes carry SourceLocs so every compile error can say exactly
// where it came from.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ruledsl/lexer.h"

namespace scidive::ruledsl {

struct ExprNode {
  enum class Kind {
    kIntLit,       // int_value
    kDurationLit,  // int_value (microseconds)
    kStringLit,    // text
    kBoolLit,      // int_value 0/1
    kNeverLit,     // the uninitialized-time sentinel
    kIdent,        // text: event field or state slot
    kCall,         // text: function name; children: arguments
    kBinary,       // text: operator spelling; children: lhs, rhs
    kNot,          // children: operand
  };
  Kind kind = Kind::kIntLit;
  SourceLoc loc;
  int64_t int_value = 0;
  std::string text;
  std::vector<ExprNode> children;
};

struct StmtNode {
  enum class Kind { kSet, kAdd, kIf, kAlert, kVerdict };
  Kind kind = Kind::kSet;
  SourceLoc loc;
  std::string target;                // set/add: slot name
  std::optional<ExprNode> expr;      // set: value; if: condition; add: the
                                     // value a stringset slot takes in
  std::string severity;              // alert: critical/warning/info;
                                     // verdict: drop/quarantine/rate_limit
  std::string template_text;         // alert/verdict: message template
  std::vector<StmtNode> then_body;   // if
  std::vector<StmtNode> else_body;   // if
};

struct SlotNode {
  SourceLoc loc;
  std::string type_name;  // time/int/bool/string/addr/endpoint/eventset/window/stringset
  std::string name;
  std::optional<ExprNode> init;
  std::optional<ExprNode> span;  // window: how far back it holds event times
};

/// A rule-level `param TYPE NAME = literal;`: a named constant the compiler
/// may override by "rule.param" name.
struct ParamNode {
  SourceLoc loc;
  std::string type_name;  // int/duration
  std::string name;
  ExprNode init;
};

struct HandlerNode {
  SourceLoc loc;
  std::vector<std::string> event_names;
  std::vector<SourceLoc> event_locs;
  std::vector<StmtNode> body;
};

struct RuleNode {
  SourceLoc loc;
  std::string name;
  std::string key = "session";  // "session" (default) or "aor"
  SourceLoc key_loc;
  std::vector<ParamNode> params;
  std::vector<SlotNode> slots;
  std::vector<HandlerNode> handlers;
};

struct RulesetAst {
  std::vector<RuleNode> rules;
};

}  // namespace scidive::ruledsl
