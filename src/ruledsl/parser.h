// Recursive-descent parser for the .sdr ruleset grammar:
//
//   ruleset  := rule*
//   rule     := "rule" NAME "{" ( key | param | state | handler )* "}"
//   key      := "key" ( "session" | "aor" ) ";"
//   param    := "param" TYPE NAME "=" expr ";"
//   state    := "state" "{" ( TYPE NAME ( "over" expr )? ( "=" expr )? ";" )* "}"
//   handler  := "on" EVENT ( "," EVENT )* "{" stmt* "}"
//   stmt     := "set" NAME "=" expr ";"
//             | "add" NAME expr? ";"
//             | "if" expr "{" stmt* "}" ( "else" "{" stmt* "}" )?
//             | "alert" SEVERITY STRING ";"
//   expr     := or ; or := and ("||" and)* ; and := cmp ("&&" cmp)*
//   cmp      := unary ( ("=="|"!="|"<"|"<="|">"|">=") unary )?
//   unary    := "!" unary | primary
//   primary  := INT | DURATION | STRING | "true" | "false" | "never"
//             | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"
//
// Untrusted input: bounded recursion depth, first error wins, diagnostics
// carry file:line:col.
#pragma once

#include "common/result.h"
#include "ruledsl/ast.h"

namespace scidive::ruledsl {

/// Nesting bound for expressions and if-statements (fuzz inputs nest
/// pathologically; real rulesets stay in single digits).
inline constexpr int kMaxParseDepth = 64;

Result<RulesetAst> parse_ruleset(std::string_view text, std::string_view filename);

/// Parse one expression from a standalone snippet (used for the `{...}`
/// holes in alert templates). `loc_base` anchors diagnostics at the
/// template's own location.
Result<ExprNode> parse_expression_snippet(std::string_view text, std::string_view filename,
                                          SourceLoc loc_base);

}  // namespace scidive::ruledsl
