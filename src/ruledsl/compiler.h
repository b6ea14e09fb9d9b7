// Compiler: AST -> CompiledRuleset. Lowers each rule into an
// event-subscription mask, per-EventType statement ranges and RPN
// expression programs, type-checking everything against the slot
// declarations and the event-field vocabulary. All diagnostics are
// source-located; nothing throws.
#pragma once

#include "common/result.h"
#include "ruledsl/ast.h"
#include "ruledsl/program.h"

namespace scidive::ruledsl {

/// `params` overrides parameter defaults by "rule.param" name.
Result<CompiledRuleset> compile(const RulesetAst& ast, std::string_view filename,
                                const ParamOverrides& params = {});

}  // namespace scidive::ruledsl
