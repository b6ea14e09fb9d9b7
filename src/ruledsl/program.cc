#include "ruledsl/program.h"

#include "common/strings.h"
#include "ruledsl/compiler.h"
#include "scidive/event.h"

namespace scidive::ruledsl {

namespace {

std::string expr_op_to_string(const ExprOp& op, const CompiledRuleDef& def) {
  switch (op.kind) {
    case ExprOpKind::kPushInt:
      if (op.type == ValType::kTime && op.imm == kNever) return "push never";
      return str::format("push %s %lld", std::string(val_type_name(op.type)).c_str(),
                         static_cast<long long>(op.imm));
    case ExprOpKind::kPushString:
      return str::format("push \"%s\"", def.strings[op.str_index].c_str());
    case ExprOpKind::kPushField:
      switch (op.field) {
        case Field::kAor: return "push aor";
        case Field::kEndpoint: return "push endpoint";
        case Field::kValue: return "push value";
        case Field::kDetail: return "push detail";
        case Field::kSession: return "push session";
        case Field::kTime: return "push time";
        case Field::kRegisteredAt: return "push registered_at";
      }
      return "push ?";
    case ExprOpKind::kPushSlot:
      return str::format("push slot %s", def.slots[op.slot].name.c_str());
    case ExprOpKind::kAddrOf: return "addr";
    case ExprOpKind::kSince: return "since";
    case ExprOpKind::kWithin: return "within";
    case ExprOpKind::kCount: return "count";
    case ExprOpKind::kCountEntries:
      return str::format("count slot %s", def.slots[op.slot].name.c_str());
    case ExprOpKind::kHasTrail:
      return str::format("has_trail %lld", static_cast<long long>(op.imm));
    case ExprOpKind::kCmpEq: return "eq";
    case ExprOpKind::kCmpNe: return "ne";
    case ExprOpKind::kCmpLt: return "lt";
    case ExprOpKind::kCmpLe: return "le";
    case ExprOpKind::kCmpGt: return "gt";
    case ExprOpKind::kCmpGe: return "ge";
    case ExprOpKind::kAnd: return "and";
    case ExprOpKind::kOr: return "or";
    case ExprOpKind::kNot: return "not";
  }
  return "?";
}

}  // namespace

std::string CompiledRuleset::dump() const {
  std::string out;
  for (const auto& def : rules) {
    out += str::format("rule %s (key %s, %zu slot%s)\n", def->name.c_str(),
                       def->key == KeyKind::kAor ? "aor" : "session", def->slots.size(),
                       def->slots.size() == 1 ? "" : "s");
    for (const SlotDecl& slot : def->slots) {
      out += str::format("  slot %s: %s\n", slot.name.c_str(),
                         std::string(val_type_name(slot.type)).c_str());
    }
    for (size_t t = 0; t < core::kEventTypeCount; ++t) {
      const HandlerRange& h = def->handlers[t];
      if (h.begin == h.end) continue;
      out += str::format("  on %s: stmts [%u, %u)\n",
                         std::string(core::event_type_name(static_cast<core::EventType>(t)))
                             .c_str(),
                         h.begin, h.end);
    }
    for (size_t i = 0; i < def->stmts.size(); ++i) {
      const StmtOp& op = def->stmts[i];
      switch (op.kind) {
        case StmtOpKind::kBranchIfFalse:
          out += str::format("  %3zu: branch-if-false expr#%u -> %u\n", i, op.expr, op.target);
          break;
        case StmtOpKind::kJump:
          out += str::format("  %3zu: jump -> %u\n", i, op.target);
          break;
        case StmtOpKind::kSetSlot:
          out += str::format("  %3zu: set %s = expr#%u\n", i, def->slots[op.slot].name.c_str(),
                             op.expr);
          break;
        case StmtOpKind::kAddEvent:
        case StmtOpKind::kAddInt:
        case StmtOpKind::kAddTime:
          out += str::format("  %3zu: add %s\n", i, def->slots[op.slot].name.c_str());
          break;
        case StmtOpKind::kAddString:
          out += str::format("  %3zu: add %s expr#%u\n", i, def->slots[op.slot].name.c_str(),
                             op.expr);
          break;
        case StmtOpKind::kAlert:
          out += str::format("  %3zu: alert %s template#%u\n", i,
                             std::string(core::severity_name(def->alerts[op.alert].severity))
                                 .c_str(),
                             op.alert);
          break;
        case StmtOpKind::kVerdict:
          out += str::format(
              "  %3zu: verdict %s template#%u\n", i,
              std::string(core::verdict_action_name(def->verdicts[op.alert].action)).c_str(),
              op.alert);
          break;
      }
    }
    for (size_t i = 0; i < def->exprs.size(); ++i) {
      const ExprProgram& program = def->exprs[i];
      out += str::format("  expr#%zu (%s):", i,
                         std::string(val_type_name(program.result)).c_str());
      for (const ExprOp& op : program.ops) {
        out += " [";
        out += expr_op_to_string(op, *def);
        out += "]";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace scidive::ruledsl
