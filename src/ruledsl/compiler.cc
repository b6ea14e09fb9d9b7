#include "ruledsl/compiler.h"

#include <map>
#include <optional>
#include <set>

#include "common/strings.h"
#include "ruledsl/parser.h"
#include "scidive/event.h"
#include "scidive/footprint.h"

namespace scidive::ruledsl {

namespace {

using core::EventType;
using core::kEventTypeCount;

std::optional<EventType> event_type_by_name(std::string_view name) {
  for (size_t i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    if (core::event_type_name(t) == name) return t;
  }
  return std::nullopt;
}

std::optional<core::Protocol> protocol_by_name(std::string_view name) {
  for (core::Protocol p : {core::Protocol::kSip, core::Protocol::kRtp, core::Protocol::kRtcp,
                           core::Protocol::kAcc, core::Protocol::kH225, core::Protocol::kRas}) {
    if (core::protocol_name(p) == name) return p;
  }
  return std::nullopt;
}

struct FieldInfo {
  Field field;
  ValType type;
};

std::optional<FieldInfo> field_by_name(std::string_view name) {
  if (name == "aor") return FieldInfo{Field::kAor, ValType::kString};
  if (name == "endpoint") return FieldInfo{Field::kEndpoint, ValType::kEndpoint};
  if (name == "value") return FieldInfo{Field::kValue, ValType::kInt};
  if (name == "detail") return FieldInfo{Field::kDetail, ValType::kString};
  if (name == "session") return FieldInfo{Field::kSession, ValType::kString};
  if (name == "time") return FieldInfo{Field::kTime, ValType::kTime};
  if (name == "registered_at") return FieldInfo{Field::kRegisteredAt, ValType::kTime};
  return std::nullopt;
}

std::optional<ValType> slot_type_by_name(std::string_view name) {
  if (name == "int") return ValType::kInt;
  if (name == "duration") return ValType::kDuration;
  if (name == "time") return ValType::kTime;
  if (name == "bool") return ValType::kBool;
  if (name == "string") return ValType::kString;
  if (name == "addr") return ValType::kAddr;
  if (name == "endpoint") return ValType::kEndpoint;
  if (name == "eventset") return ValType::kEventSet;
  if (name == "window") return ValType::kWindow;
  if (name == "stringset") return ValType::kStringSet;
  return std::nullopt;
}

/// Window and stringset slots hold collections: `add` fills them and
/// count() reads their size, but they are no expression values.
bool type_is_collection(ValType t) { return t == ValType::kWindow || t == ValType::kStringSet; }

bool is_builtin_name(std::string_view name) {
  return field_by_name(name) || name == "true" || name == "false" || name == "never";
}

bool type_is_ordered(ValType t) {
  return t == ValType::kInt || t == ValType::kDuration || t == ValType::kTime;
}

bool type_is_equatable(ValType t) { return t != ValType::kEventSet; }

class RuleCompiler {
 public:
  /// Overrides naming one of this rule's parameters are applied and their
  /// names added to `overrides_used`.
  RuleCompiler(const RuleNode& rule, std::string_view filename,
               const ParamOverrides& overrides, std::set<std::string>& overrides_used)
      : rule_(rule), filename_(filename), overrides_(overrides),
        overrides_used_(overrides_used) {}

  Result<CompiledRuleDef> run() {
    def_.name = rule_.name;
    def_.key = rule_.key == "aor" ? KeyKind::kAor : KeyKind::kSession;

    if (auto s = compile_params(); !s.ok()) return s.error();
    if (auto s = compile_slots(); !s.ok()) return s.error();
    if (rule_.handlers.empty()) {
      return err(rule_.loc, str::format("rule '%s' has no 'on' handlers", rule_.name.c_str()));
    }
    for (const HandlerNode& handler : rule_.handlers) {
      if (auto s = compile_handler(handler); !s.ok()) return s.error();
    }
    return std::move(def_);
  }

 private:
  Error err(SourceLoc loc, const std::string& what) const {
    return Error{Errc::kMalformed,
                 str::format("%.*s:%u:%u: %s", static_cast<int>(filename_.size()),
                             filename_.data(), loc.line, loc.col, what.c_str())};
  }

  /// Parameters are named constants: a reference compiles to its value,
  /// the declared default unless an override names "rule.param".
  Status compile_params() {
    for (const ParamNode& param : rule_.params) {
      const bool is_int = param.type_name == "int";
      if (!(is_int ? param.init.kind == ExprNode::Kind::kIntLit
                   : param.type_name == "duration" &&
                         param.init.kind == ExprNode::Kind::kDurationLit)) {
        return err(param.loc, str::format("parameter '%s' must be an int or a duration, with "
                                          "a literal of that type as its default",
                                          param.name.c_str()));
      }
      if (is_builtin_name(param.name) || params_.contains(param.name)) {
        return err(param.loc, str::format("parameter name '%s' is a built-in or already taken",
                                          param.name.c_str()));
      }
      int64_t value = param.init.int_value;
      const std::string qualified = rule_.name + "." + param.name;
      if (auto it = overrides_.find(qualified); it != overrides_.end()) {
        value = it->second;
        overrides_used_.insert(qualified);
      }
      params_[param.name] = Param{is_int ? ValType::kInt : ValType::kDuration, value};
    }
    return Status::Ok();
  }

  Status compile_slots() {
    for (const SlotNode& slot : rule_.slots) {
      auto type = slot_type_by_name(slot.type_name);
      if (!type) {
        return err(slot.loc, str::format("unknown slot type '%s'", slot.type_name.c_str()));
      }
      if (is_builtin_name(slot.name)) {
        return err(slot.loc,
                   str::format("slot name '%s' shadows a built-in", slot.name.c_str()));
      }
      if (slot_index_.contains(slot.name) || params_.contains(slot.name)) {
        return err(slot.loc, str::format("duplicate slot '%s'", slot.name.c_str()));
      }
      SlotDecl decl;
      decl.name = slot.name;
      decl.type = *type;
      decl.init = *type == ValType::kTime ? kNever : 0;
      if (*type == ValType::kString) decl.str_index = def_.num_string_slots++;
      if (*type == ValType::kWindow) decl.coll_index = def_.num_windows++;
      if (*type == ValType::kStringSet) decl.coll_index = def_.num_sets++;
      if (slot.span.has_value() != (*type == ValType::kWindow)) {
        return err(slot.loc, str::format("slot '%s': a window, and only a window, takes "
                                         "'over <span>'",
                                         slot.name.c_str()));
      }
      if (slot.span) {
        auto span = constant_duration(*slot.span);
        if (!span.ok()) return span.error();
        decl.span = span.value();
      }
      if (slot.init) {
        if (auto s = constant_init(*slot.init, decl); !s.ok()) return s.error();
      }
      slot_index_[slot.name] = static_cast<uint32_t>(def_.slots.size());
      def_.slots.push_back(std::move(decl));
    }
    return Status::Ok();
  }

  /// A window's span: a duration literal or a duration parameter.
  Result<int64_t> constant_duration(const ExprNode& node) const {
    if (node.kind == ExprNode::Kind::kDurationLit) return node.int_value;
    if (node.kind == ExprNode::Kind::kIdent) {
      auto it = params_.find(node.text);
      if (it != params_.end() && it->second.type == ValType::kDuration) return it->second.value;
    }
    return err(node.loc, "a window span must be a duration literal or a duration parameter");
  }

  Status constant_init(const ExprNode& init, SlotDecl& decl) {
    ValType got;
    switch (init.kind) {
      case ExprNode::Kind::kIntLit:
        got = ValType::kInt;
        decl.init = init.int_value;
        break;
      case ExprNode::Kind::kDurationLit:
        got = ValType::kDuration;
        decl.init = init.int_value;
        break;
      case ExprNode::Kind::kBoolLit:
        got = ValType::kBool;
        decl.init = init.int_value;
        break;
      case ExprNode::Kind::kNeverLit:
        got = ValType::kTime;
        decl.init = kNever;
        break;
      case ExprNode::Kind::kStringLit:
        got = ValType::kString;
        decl.str_init = init.text;
        break;
      default:
        return err(init.loc, "slot initializers must be literals");
    }
    if (got != decl.type) {
      return err(init.loc, str::format("slot '%s' is %s but its initializer is %s",
                                       decl.name.c_str(),
                                       std::string(val_type_name(decl.type)).c_str(),
                                       std::string(val_type_name(got)).c_str()));
    }
    return Status::Ok();
  }

  Status compile_handler(const HandlerNode& handler) {
    const auto begin = static_cast<uint32_t>(def_.stmts.size());
    if (auto s = compile_stmts(handler.body); !s.ok()) return s.error();
    const auto end = static_cast<uint32_t>(def_.stmts.size());
    for (size_t i = 0; i < handler.event_names.size(); ++i) {
      auto type = event_type_by_name(handler.event_names[i]);
      if (!type) {
        return err(handler.event_locs[i],
                   str::format("unknown event '%s'", handler.event_names[i].c_str()));
      }
      const auto idx = static_cast<size_t>(*type);
      if (def_.subscriptions & (core::EventTypeMask{1} << idx)) {
        return err(handler.event_locs[i],
                   str::format("duplicate handler for event '%s'",
                               handler.event_names[i].c_str()));
      }
      def_.subscriptions |= core::EventTypeMask{1} << idx;
      def_.handlers[idx] = HandlerRange{begin, end};
    }
    return Status::Ok();
  }

  Status compile_stmts(const std::vector<StmtNode>& stmts) {
    for (const StmtNode& stmt : stmts) {
      if (auto s = compile_stmt(stmt); !s.ok()) return s.error();
    }
    return Status::Ok();
  }

  Status compile_stmt(const StmtNode& stmt) {
    switch (stmt.kind) {
      case StmtNode::Kind::kSet: {
        auto it = slot_index_.find(stmt.target);
        if (it == slot_index_.end()) {
          return err(stmt.loc, str::format("unknown slot '%s'", stmt.target.c_str()));
        }
        const SlotDecl& decl = def_.slots[it->second];
        auto expr = compile_expr(*stmt.expr);
        if (!expr.ok()) return expr.error();
        ValType got = def_.exprs[expr.value()].result;
        // A time slot may record the current `time` or be reset to `never`;
        // both are kTime. Everything else must match exactly.
        if (got != decl.type) {
          return err(stmt.loc, str::format("cannot set %s slot '%s' from a %s expression",
                                           std::string(val_type_name(decl.type)).c_str(),
                                           decl.name.c_str(),
                                           std::string(val_type_name(got)).c_str()));
        }
        StmtOp op;
        op.kind = StmtOpKind::kSetSlot;
        op.slot = it->second;
        op.expr = expr.value();
        def_.stmts.push_back(op);
        return Status::Ok();
      }
      case StmtNode::Kind::kAdd: {
        auto it = slot_index_.find(stmt.target);
        if (it == slot_index_.end()) {
          return err(stmt.loc, str::format("unknown slot '%s'", stmt.target.c_str()));
        }
        const ValType slot_type = def_.slots[it->second].type;
        StmtOp op;
        op.slot = it->second;
        // On an eventset, `add` accumulates the event's type bit; on an int
        // it increments (the counter form); on a window it records the
        // event's time; on a stringset it inserts the value given.
        switch (slot_type) {
          case ValType::kEventSet: op.kind = StmtOpKind::kAddEvent; break;
          case ValType::kInt: op.kind = StmtOpKind::kAddInt; break;
          case ValType::kWindow: op.kind = StmtOpKind::kAddTime; break;
          case ValType::kStringSet: op.kind = StmtOpKind::kAddString; break;
          default:
            return err(stmt.loc,
                       str::format("'add' needs an eventset, int, window or stringset slot; "
                                   "'%s' is %s",
                                   stmt.target.c_str(),
                                   std::string(val_type_name(slot_type)).c_str()));
        }
        if (stmt.expr.has_value() != (slot_type == ValType::kStringSet)) {
          return err(stmt.loc, str::format("'add %s': a stringset, and only a stringset, "
                                           "takes a value",
                                           stmt.target.c_str()));
        }
        if (stmt.expr) {
          auto value = compile_expr(*stmt.expr);
          if (!value.ok()) return value.error();
          if (def_.exprs[value.value()].result != ValType::kString) {
            return err(stmt.expr->loc, "a stringset takes string values");
          }
          op.expr = value.value();
        }
        def_.stmts.push_back(op);
        return Status::Ok();
      }
      case StmtNode::Kind::kIf: {
        auto cond = compile_expr(*stmt.expr);
        if (!cond.ok()) return cond.error();
        if (def_.exprs[cond.value()].result != ValType::kBool) {
          return err(stmt.expr->loc, "if condition must be a bool expression");
        }
        StmtOp branch;
        branch.kind = StmtOpKind::kBranchIfFalse;
        branch.expr = cond.value();
        const auto branch_at = static_cast<uint32_t>(def_.stmts.size());
        def_.stmts.push_back(branch);
        if (auto s = compile_stmts(stmt.then_body); !s.ok()) return s.error();
        if (stmt.else_body.empty()) {
          def_.stmts[branch_at].target = static_cast<uint32_t>(def_.stmts.size());
        } else {
          StmtOp jump;
          jump.kind = StmtOpKind::kJump;
          const auto jump_at = static_cast<uint32_t>(def_.stmts.size());
          def_.stmts.push_back(jump);
          def_.stmts[branch_at].target = static_cast<uint32_t>(def_.stmts.size());
          if (auto s = compile_stmts(stmt.else_body); !s.ok()) return s.error();
          def_.stmts[jump_at].target = static_cast<uint32_t>(def_.stmts.size());
        }
        return Status::Ok();
      }
      case StmtNode::Kind::kAlert: {
        auto tmpl = compile_alert(stmt);
        if (!tmpl.ok()) return tmpl.error();
        StmtOp op;
        op.kind = StmtOpKind::kAlert;
        op.alert = tmpl.value();
        def_.stmts.push_back(op);
        return Status::Ok();
      }
      case StmtNode::Kind::kVerdict: {
        VerdictTemplate tmpl;
        tmpl.action = stmt.severity == "rate_limit"   ? core::VerdictAction::kRateLimit
                      : stmt.severity == "quarantine" ? core::VerdictAction::kQuarantine
                                                      : core::VerdictAction::kDrop;
        auto pieces = compile_template(stmt.template_text, stmt.loc, "verdict");
        if (!pieces.ok()) return pieces.error();
        tmpl.pieces = std::move(pieces).value();
        def_.verdicts.push_back(std::move(tmpl));
        StmtOp op;
        op.kind = StmtOpKind::kVerdict;
        op.alert = static_cast<uint32_t>(def_.verdicts.size() - 1);
        def_.stmts.push_back(op);
        return Status::Ok();
      }
    }
    return err(stmt.loc, "unhandled statement");
  }

  Result<uint32_t> compile_alert(const StmtNode& stmt) {
    AlertTemplate tmpl;
    tmpl.severity = stmt.severity == "critical" ? core::Severity::kCritical
                    : stmt.severity == "info"   ? core::Severity::kInfo
                                                : core::Severity::kWarning;
    auto pieces = compile_template(stmt.template_text, stmt.loc, "alert");
    if (!pieces.ok()) return pieces.error();
    tmpl.pieces = std::move(pieces).value();
    def_.alerts.push_back(std::move(tmpl));
    return static_cast<uint32_t>(def_.alerts.size() - 1);
  }

  Result<std::vector<AlertPiece>> compile_template(const std::string& text, SourceLoc loc,
                                                   const char* what) {
    std::vector<AlertPiece> pieces;
    std::string literal;
    for (size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '{') {
        if (i + 1 < text.size() && text[i + 1] == '{') {
          literal += '{';
          ++i;
          continue;
        }
        const size_t close = text.find('}', i + 1);
        if (close == std::string::npos) {
          return err(loc, str::format("unterminated '{' in %s template (use '{{' for a literal)",
                                      what));
        }
        std::string hole = text.substr(i + 1, close - i - 1);
        i = close;
        if (!literal.empty()) {
          AlertPiece piece;
          piece.literal = std::move(literal);
          literal.clear();
          pieces.push_back(std::move(piece));
        }
        auto piece = compile_hole(hole, loc);
        if (!piece.ok()) return piece.error();
        pieces.push_back(std::move(piece).value());
        continue;
      }
      if (c == '}') {
        if (i + 1 < text.size() && text[i + 1] == '}') {
          literal += '}';
          ++i;
          continue;
        }
        return err(loc, str::format("stray '}' in %s template (use '}}' for a literal)", what));
      }
      literal += c;
    }
    if (!literal.empty()) {
      AlertPiece piece;
      piece.literal = std::move(literal);
      pieces.push_back(std::move(piece));
    }
    return pieces;
  }

  Result<AlertPiece> compile_hole(const std::string& hole, SourceLoc loc) {
    std::string expr_text = hole;
    AlertPiece piece;
    // Optional ":format" suffix; expressions contain no ':', so the first
    // colon (if any) starts the format name.
    if (auto split = str::split_once(hole, ':')) {
      expr_text = std::string(split->first);
      std::string_view fmt = split->second;
      if (fmt == "sec1") {
        piece.format = AlertPiece::Format::kSec1;
      } else {
        return err(loc, str::format("unknown template format ':%.*s' (supported: sec1)",
                                    static_cast<int>(fmt.size()), fmt.data()));
      }
    }
    auto node = parse_expression_snippet(expr_text, filename_, loc);
    if (!node.ok()) return node.error();
    auto expr = compile_expr(node.value());
    if (!expr.ok()) return expr.error();
    piece.expr_index = static_cast<int32_t>(expr.value());
    const ValType got = def_.exprs[expr.value()].result;
    if (piece.format == AlertPiece::Format::kSec1 && got != ValType::kDuration) {
      return err(loc, str::format("':sec1' needs a duration, got %s",
                                  std::string(val_type_name(got)).c_str()));
    }
    return piece;
  }

  /// Compile one expression AST into a fresh ExprProgram; returns its index.
  Result<uint32_t> compile_expr(const ExprNode& node) {
    ExprProgram program;
    uint32_t depth = 0;
    auto type = emit(node, program, depth);
    if (!type.ok()) return type.error();
    program.result = type.value();
    if (program.max_stack > kMaxEvalStack) {
      return err(node.loc, "expression too deep");
    }
    def_.exprs.push_back(std::move(program));
    return static_cast<uint32_t>(def_.exprs.size() - 1);
  }

  void push_tracks(ExprProgram& program, uint32_t& depth) {
    ++depth;
    if (depth > program.max_stack) program.max_stack = depth;
  }

  /// Emit RPN ops for `node` into `program`; `depth` tracks the stack level
  /// (each emit leaves net one more value on the stack).
  Result<ValType> emit(const ExprNode& node, ExprProgram& program, uint32_t& depth) {
    switch (node.kind) {
      case ExprNode::Kind::kIntLit:
        program.ops.push_back({ExprOpKind::kPushInt, ValType::kInt, Field::kAor,
                               node.int_value, 0, 0});
        push_tracks(program, depth);
        return ValType::kInt;
      case ExprNode::Kind::kDurationLit:
        program.ops.push_back({ExprOpKind::kPushInt, ValType::kDuration, Field::kAor,
                               node.int_value, 0, 0});
        push_tracks(program, depth);
        return ValType::kDuration;
      case ExprNode::Kind::kBoolLit:
        program.ops.push_back({ExprOpKind::kPushInt, ValType::kBool, Field::kAor,
                               node.int_value, 0, 0});
        push_tracks(program, depth);
        return ValType::kBool;
      case ExprNode::Kind::kNeverLit:
        program.ops.push_back({ExprOpKind::kPushInt, ValType::kTime, Field::kAor, kNever, 0, 0});
        push_tracks(program, depth);
        return ValType::kTime;
      case ExprNode::Kind::kStringLit: {
        def_.strings.push_back(node.text);
        ExprOp op;
        op.kind = ExprOpKind::kPushString;
        op.type = ValType::kString;
        op.str_index = static_cast<uint32_t>(def_.strings.size() - 1);
        program.ops.push_back(op);
        push_tracks(program, depth);
        return ValType::kString;
      }
      case ExprNode::Kind::kIdent: {
        if (auto field = field_by_name(node.text)) {
          ExprOp op;
          op.kind = ExprOpKind::kPushField;
          op.type = field->type;
          op.field = field->field;
          program.ops.push_back(op);
          push_tracks(program, depth);
          return field->type;
        }
        if (auto param = params_.find(node.text); param != params_.end()) {
          program.ops.push_back({ExprOpKind::kPushInt, param->second.type, Field::kAor,
                                 param->second.value, 0, 0});
          push_tracks(program, depth);
          return param->second.type;
        }
        auto it = slot_index_.find(node.text);
        if (it == slot_index_.end()) {
          return err(node.loc, str::format("unknown name '%s' (not an event field, state slot "
                                           "or parameter)",
                                           node.text.c_str()));
        }
        if (type_is_collection(def_.slots[it->second].type)) {
          return err(node.loc, str::format("%s slot '%s' has no value; read it with count()",
                                           std::string(val_type_name(def_.slots[it->second].type))
                                               .c_str(),
                                           node.text.c_str()));
        }
        ExprOp op;
        op.kind = ExprOpKind::kPushSlot;
        op.type = def_.slots[it->second].type;
        op.slot = it->second;
        program.ops.push_back(op);
        push_tracks(program, depth);
        return def_.slots[it->second].type;
      }
      case ExprNode::Kind::kCall:
        return emit_call(node, program, depth);
      case ExprNode::Kind::kNot: {
        auto operand = emit(node.children[0], program, depth);
        if (!operand.ok()) return operand;
        if (operand.value() != ValType::kBool) {
          return err(node.loc, "'!' needs a bool operand");
        }
        program.ops.push_back({ExprOpKind::kNot, ValType::kBool, Field::kAor, 0, 0, 0});
        return ValType::kBool;
      }
      case ExprNode::Kind::kBinary:
        return emit_binary(node, program, depth);
    }
    return err(node.loc, "unhandled expression");
  }

  Result<ValType> emit_call(const ExprNode& node, ExprProgram& program, uint32_t& depth) {
    const std::string& fn = node.text;
    auto arity = [&](size_t n) -> Status {
      if (node.children.size() != n) {
        return err(node.loc, str::format("%s() takes %zu argument%s", fn.c_str(), n,
                                         n == 1 ? "" : "s"));
      }
      return Status::Ok();
    };
    if (fn == "addr") {
      if (auto s = arity(1); !s.ok()) return s.error();
      auto arg = emit(node.children[0], program, depth);
      if (!arg.ok()) return arg;
      if (arg.value() != ValType::kEndpoint) {
        return err(node.loc, "addr() needs an endpoint");
      }
      program.ops.push_back({ExprOpKind::kAddrOf, ValType::kAddr, Field::kAor, 0, 0, 0});
      return ValType::kAddr;
    }
    if (fn == "since") {
      if (auto s = arity(1); !s.ok()) return s.error();
      auto arg = emit(node.children[0], program, depth);
      if (!arg.ok()) return arg;
      if (arg.value() != ValType::kTime) {
        return err(node.loc, "since() needs a time (a time slot or the time field)");
      }
      program.ops.push_back({ExprOpKind::kSince, ValType::kDuration, Field::kAor, 0, 0, 0});
      return ValType::kDuration;
    }
    if (fn == "within") {
      if (auto s = arity(2); !s.ok()) return s.error();
      auto t = emit(node.children[0], program, depth);
      if (!t.ok()) return t;
      if (t.value() != ValType::kTime) {
        return err(node.loc, "within() needs a time as its first argument");
      }
      auto d = emit(node.children[1], program, depth);
      if (!d.ok()) return d;
      if (d.value() != ValType::kDuration) {
        return err(node.loc, "within() needs a duration as its second argument");
      }
      program.ops.push_back({ExprOpKind::kWithin, ValType::kBool, Field::kAor, 0, 0, 0});
      --depth;  // two popped, one pushed
      return ValType::kBool;
    }
    if (fn == "count") {
      if (auto s = arity(1); !s.ok()) return s.error();
      const ExprNode& target = node.children[0];
      if (target.kind == ExprNode::Kind::kIdent) {
        auto it = slot_index_.find(target.text);
        if (it != slot_index_.end() && type_is_collection(def_.slots[it->second].type)) {
          ExprOp op;
          op.kind = ExprOpKind::kCountEntries;
          op.slot = it->second;
          program.ops.push_back(op);
          push_tracks(program, depth);
          return ValType::kInt;
        }
      }
      auto arg = emit(target, program, depth);
      if (!arg.ok()) return arg;
      if (arg.value() != ValType::kEventSet) {
        return err(node.loc, "count() needs an eventset, window or stringset slot");
      }
      program.ops.push_back({ExprOpKind::kCount, ValType::kInt, Field::kAor, 0, 0, 0});
      return ValType::kInt;
    }
    if (fn == "has_trail") {
      if (auto s = arity(1); !s.ok()) return s.error();
      const ExprNode& arg = node.children[0];
      if (arg.kind != ExprNode::Kind::kStringLit) {
        return err(node.loc, "has_trail() needs a protocol name string literal");
      }
      auto proto = protocol_by_name(arg.text);
      if (!proto) {
        return err(arg.loc, str::format("unknown protocol '%s'", arg.text.c_str()));
      }
      ExprOp op;
      op.kind = ExprOpKind::kHasTrail;
      op.type = ValType::kBool;
      op.imm = static_cast<int64_t>(*proto);
      program.ops.push_back(op);
      push_tracks(program, depth);
      return ValType::kBool;
    }
    return err(node.loc, str::format("unknown function '%s'", fn.c_str()));
  }

  Result<ValType> emit_binary(const ExprNode& node, ExprProgram& program, uint32_t& depth) {
    const std::string& op = node.text;
    auto lhs = emit(node.children[0], program, depth);
    if (!lhs.ok()) return lhs;
    auto rhs = emit(node.children[1], program, depth);
    if (!rhs.ok()) return rhs;

    if (op == "&&" || op == "||") {
      if (lhs.value() != ValType::kBool || rhs.value() != ValType::kBool) {
        return err(node.loc, str::format("'%s' needs bool operands", op.c_str()));
      }
      program.ops.push_back({op == "&&" ? ExprOpKind::kAnd : ExprOpKind::kOr, ValType::kBool,
                             Field::kAor, 0, 0, 0});
      --depth;
      return ValType::kBool;
    }

    if (lhs.value() != rhs.value()) {
      return err(node.loc, str::format("'%s' compares %s with %s", op.c_str(),
                                       std::string(val_type_name(lhs.value())).c_str(),
                                       std::string(val_type_name(rhs.value())).c_str()));
    }
    ExprOpKind kind;
    if (op == "==") {
      kind = ExprOpKind::kCmpEq;
    } else if (op == "!=") {
      kind = ExprOpKind::kCmpNe;
    } else if (op == "<") {
      kind = ExprOpKind::kCmpLt;
    } else if (op == "<=") {
      kind = ExprOpKind::kCmpLe;
    } else if (op == ">") {
      kind = ExprOpKind::kCmpGt;
    } else {
      kind = ExprOpKind::kCmpGe;
    }
    const bool ordered = kind != ExprOpKind::kCmpEq && kind != ExprOpKind::kCmpNe;
    if (ordered && !type_is_ordered(lhs.value())) {
      return err(node.loc, str::format("'%s' needs numeric operands, got %s", op.c_str(),
                                       std::string(val_type_name(lhs.value())).c_str()));
    }
    if (!ordered && !type_is_equatable(lhs.value())) {
      return err(node.loc, str::format("%s values cannot be compared",
                                       std::string(val_type_name(lhs.value())).c_str()));
    }
    program.ops.push_back({kind, lhs.value(), Field::kAor, 0, 0, 0});
    --depth;
    return ValType::kBool;
  }

  struct Param {
    ValType type;
    int64_t value;
  };

  const RuleNode& rule_;
  std::string_view filename_;
  const ParamOverrides& overrides_;
  std::set<std::string>& overrides_used_;
  CompiledRuleDef def_;
  std::map<std::string, uint32_t, std::less<>> slot_index_;
  std::map<std::string, Param, std::less<>> params_;
};

}  // namespace

std::string_view val_type_name(ValType t) {
  switch (t) {
    case ValType::kInt: return "int";
    case ValType::kDuration: return "duration";
    case ValType::kTime: return "time";
    case ValType::kBool: return "bool";
    case ValType::kString: return "string";
    case ValType::kAddr: return "addr";
    case ValType::kEndpoint: return "endpoint";
    case ValType::kEventSet: return "eventset";
    case ValType::kWindow: return "window";
    case ValType::kStringSet: return "stringset";
  }
  return "?";
}

Result<CompiledRuleset> compile(const RulesetAst& ast, std::string_view filename,
                                const ParamOverrides& params) {
  CompiledRuleset out;
  std::set<std::string> names;
  std::set<std::string> params_used;
  for (const RuleNode& rule : ast.rules) {
    if (!names.insert(rule.name).second) {
      return Error{Errc::kMalformed,
                   str::format("%.*s:%u:%u: duplicate rule '%s'",
                               static_cast<int>(filename.size()), filename.data(),
                               rule.loc.line, rule.loc.col, rule.name.c_str())};
    }
    RuleCompiler rc(rule, filename, params, params_used);
    auto def = rc.run();
    if (!def.ok()) return def.error();
    out.rules.push_back(std::make_shared<const CompiledRuleDef>(std::move(def).value()));
  }
  for (const auto& [name, value] : params) {
    if (!params_used.contains(name)) {
      return Error{Errc::kMalformed,
                   str::format("%.*s: unknown parameter '%s' (no rule declares it)",
                               static_cast<int>(filename.size()), filename.data(),
                               name.c_str())};
    }
  }
  return out;
}

}  // namespace scidive::ruledsl
