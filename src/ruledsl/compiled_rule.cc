#include "ruledsl/compiled_rule.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <utility>

#include "common/strings.h"
#include "scidive/footprint.h"
#include "scidive/trail_manager.h"

namespace scidive::ruledsl {

namespace {

/// Endpoints travel the eval stack packed: addr in the high 32 bits of a
/// 48-bit value, port in the low 16.
int64_t pack_endpoint(const pkt::Endpoint& e) {
  return static_cast<int64_t>(static_cast<uint64_t>(e.addr.value()) << 16 | e.port);
}

pkt::Endpoint unpack_endpoint(int64_t packed) {
  const auto u = static_cast<uint64_t>(packed);
  return pkt::Endpoint{pkt::Ipv4Address(static_cast<uint32_t>(u >> 16)),
                       static_cast<uint16_t>(u & 0xffff)};
}

/// since(never) = "infinitely long ago" (and unsigned arithmetic keeps the
/// subtraction defined for hostile slot contents).
int64_t since_value(SimTime now, int64_t t) {
  if (t == kNever) return INT64_MAX;
  return static_cast<int64_t>(static_cast<uint64_t>(now) - static_cast<uint64_t>(t));
}

}  // namespace

void CompiledRule::Window::add(SimTime now, SimDuration span) {
  times.push_back(now);
  while (head < times.size() && since_value(now, times[head]) > span) ++head;
  if (head > times.size() / 2) {
    times.erase(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

CompiledRule::CompiledRule(std::shared_ptr<const CompiledRuleDef> def) : def_(std::move(def)) {
  auto layout = std::make_shared<SlotLayout>();
  layout->def = def_;
  layout->shape = 0xcbf29ce484222325ULL;  // FNV-1a over the slot types
  size_t at = 0;
  for (const SlotDecl& slot : def_->slots) {
    size_t size = sizeof(int64_t);  // numbers, times, addresses, event sets
    size_t align = alignof(int64_t);
    switch (slot.type) {
      case ValType::kString:
        size = sizeof(std::string);
        align = alignof(std::string);
        break;
      case ValType::kWindow:
        size = sizeof(Window);
        align = alignof(Window);
        break;
      case ValType::kStringSet:
        size = sizeof(std::set<std::string>);
        align = alignof(std::set<std::string>);
        break;
      default:
        break;
    }
    layout->align = std::max<uint32_t>(layout->align, static_cast<uint32_t>(align));
    at = (at + align - 1) / align * align;
    layout->offsets.push_back(static_cast<uint32_t>(at));
    at += size;
    layout->shape = (layout->shape ^ (static_cast<uint64_t>(slot.type) + 1)) * 0x100000001b3ULL;
  }
  layout->bytes = static_cast<uint32_t>(at);
  offsets_ = layout->offsets.data();
  slots_ = std::move(layout);
}

core::RuleStateSpec CompiledRule::state_spec() const {
  if (def_->slots.empty()) return {};
  return {.key = def_->key == KeyKind::kAor ? core::StateKey::kPrincipal : core::StateKey::kSession,
          .size = slots_->bytes,
          .align = slots_->align,
          .shape = slots_->shape,
          .init = &CompiledRule::init_area,
          .destroy = &CompiledRule::destroy_area,
          .arg = slots_};
}

void CompiledRule::init_area(void* area, const void* arg) {
  const auto& layout = *static_cast<const SlotLayout*>(arg);
  auto* base = static_cast<std::byte*>(area);
  for (size_t i = 0; i < layout.offsets.size(); ++i) {
    const SlotDecl& slot = layout.def->slots[i];
    std::byte* at = base + layout.offsets[i];
    switch (slot.type) {
      case ValType::kString: ::new (at) std::string(slot.str_init); break;
      case ValType::kWindow: ::new (at) Window(); break;
      case ValType::kStringSet: ::new (at) std::set<std::string>(); break;
      default: ::new (at) int64_t(slot.init); break;
    }
  }
}

void CompiledRule::destroy_area(void* area, const void* arg) {
  const auto& layout = *static_cast<const SlotLayout*>(arg);
  auto* base = static_cast<std::byte*>(area);
  for (size_t i = 0; i < layout.offsets.size(); ++i) {
    std::byte* at = base + layout.offsets[i];
    switch (layout.def->slots[i].type) {
      case ValType::kString: std::destroy_at(reinterpret_cast<std::string*>(at)); break;
      case ValType::kWindow: std::destroy_at(reinterpret_cast<Window*>(at)); break;
      case ValType::kStringSet:
        std::destroy_at(reinterpret_cast<std::set<std::string>*>(at));
        break;
      default: break;
    }
  }
}

CompiledRule::Value CompiledRule::eval(const ExprProgram& program, const core::Event& event,
                                       std::byte* area, core::RuleContext& ctx) const {
  Value stack[kMaxEvalStack];
  size_t top = 0;  // next free slot; compiler bounds max_stack <= kMaxEvalStack
  for (const ExprOp& op : program.ops) {
    switch (op.kind) {
      case ExprOpKind::kPushInt:
        stack[top++].i = op.imm;
        break;
      case ExprOpKind::kPushString:
        stack[top].i = 0;
        stack[top++].s = &def_->strings[op.str_index];
        break;
      case ExprOpKind::kPushField:
        switch (op.field) {
          case Field::kAor:
            stack[top].i = 0;
            stack[top++].s = &event.aor;
            break;
          case Field::kEndpoint:
            stack[top++].i = pack_endpoint(event.endpoint);
            break;
          case Field::kValue:
            stack[top++].i = event.value;
            break;
          case Field::kDetail:
            stack[top].i = 0;
            stack[top++].s = &event.detail;
            break;
          case Field::kSession:
            stack[top].i = 0;
            stack[top++].s = &event.session;
            break;
          case Field::kTime:
            stack[top++].i = event.time;
            break;
          case Field::kRegisteredAt:
            stack[top++].i =
                ctx.trails().registered_at(event.aor, event.endpoint.addr).value_or(kNever);
            break;
        }
        break;
      case ExprOpKind::kPushSlot: {
        if (def_->slots[op.slot].type == ValType::kString) {
          stack[top].i = 0;
          stack[top++].s = &at<std::string>(area, op.slot);
        } else {
          stack[top++].i = at<int64_t>(area, op.slot);
        }
        break;
      }
      case ExprOpKind::kAddrOf:
        stack[top - 1].i = static_cast<int64_t>(static_cast<uint64_t>(stack[top - 1].i) >> 16);
        break;
      case ExprOpKind::kSince:
        stack[top - 1].i = since_value(event.time, stack[top - 1].i);
        break;
      case ExprOpKind::kWithin: {
        const int64_t d = stack[--top].i;
        const int64_t t = stack[top - 1].i;
        stack[top - 1].i = (t != kNever && since_value(event.time, t) <= d) ? 1 : 0;
        break;
      }
      case ExprOpKind::kCount:
        stack[top - 1].i = std::popcount(static_cast<uint64_t>(stack[top - 1].i));
        break;
      case ExprOpKind::kCountEntries:
        stack[top++].i = static_cast<int64_t>(def_->slots[op.slot].type == ValType::kWindow
                                                  ? at<Window>(area, op.slot).size()
                                                  : at<std::set<std::string>>(area, op.slot).size());
        break;
      case ExprOpKind::kHasTrail:
        stack[top++].i =
            ctx.trails().find(event.session, static_cast<core::Protocol>(op.imm)) != nullptr
                ? 1
                : 0;
        break;
      case ExprOpKind::kCmpEq:
      case ExprOpKind::kCmpNe: {
        const Value b = stack[--top];
        const Value& a = stack[top - 1];
        bool eq = op.type == ValType::kString ? *a.s == *b.s : a.i == b.i;
        stack[top - 1].i = (op.kind == ExprOpKind::kCmpEq) == eq ? 1 : 0;
        stack[top - 1].s = nullptr;
        break;
      }
      case ExprOpKind::kCmpLt:
      case ExprOpKind::kCmpLe:
      case ExprOpKind::kCmpGt:
      case ExprOpKind::kCmpGe: {
        const int64_t b = stack[--top].i;
        const int64_t a = stack[top - 1].i;
        bool r = false;
        switch (op.kind) {
          case ExprOpKind::kCmpLt: r = a < b; break;
          case ExprOpKind::kCmpLe: r = a <= b; break;
          case ExprOpKind::kCmpGt: r = a > b; break;
          default: r = a >= b; break;
        }
        stack[top - 1].i = r ? 1 : 0;
        break;
      }
      case ExprOpKind::kAnd: {
        const int64_t b = stack[--top].i;
        stack[top - 1].i = (stack[top - 1].i != 0 && b != 0) ? 1 : 0;
        break;
      }
      case ExprOpKind::kOr: {
        const int64_t b = stack[--top].i;
        stack[top - 1].i = (stack[top - 1].i != 0 || b != 0) ? 1 : 0;
        break;
      }
      case ExprOpKind::kNot:
        stack[top - 1].i = stack[top - 1].i != 0 ? 0 : 1;
        break;
    }
  }
  return stack[0];
}

std::string CompiledRule::render(const std::vector<AlertPiece>& pieces,
                                 const core::Event& event, std::byte* area,
                                 core::RuleContext& ctx) const {
  std::string out;
  for (const AlertPiece& piece : pieces) {
    if (piece.expr_index < 0) {
      out += piece.literal;
      continue;
    }
    const ExprProgram& program = def_->exprs[static_cast<size_t>(piece.expr_index)];
    const Value v = eval(program, event, area, ctx);
    if (piece.format == AlertPiece::Format::kSec1) {
      out += str::format("%.1f", to_sec(v.i));
      continue;
    }
    switch (program.result) {
      case ValType::kInt:
      case ValType::kDuration:
      case ValType::kTime:
        out += str::format("%lld", static_cast<long long>(v.i));
        break;
      case ValType::kBool:
        out += v.i != 0 ? "true" : "false";
        break;
      case ValType::kString:
        out += *v.s;
        break;
      case ValType::kAddr:
        out += pkt::Ipv4Address(static_cast<uint32_t>(v.i)).to_string();
        break;
      case ValType::kEndpoint:
        out += unpack_endpoint(v.i).to_string();
        break;
      case ValType::kEventSet: {
        // Ascending bit order: the event type names in enum order.
        std::string kinds;
        const auto bits = static_cast<uint64_t>(v.i);
        for (size_t t = 0; t < core::kEventTypeCount; ++t) {
          if (!(bits & (uint64_t{1} << t))) continue;
          if (!kinds.empty()) kinds += ", ";
          kinds += core::event_type_name(static_cast<core::EventType>(t));
        }
        out += kinds;
        break;
      }
    }
  }
  return out;
}

void CompiledRule::on_event(const core::Event& event, core::RuleContext& ctx) {
  const HandlerRange h = def_->handlers[static_cast<size_t>(event.type)];
  if (h.begin == h.end) return;
  // The key's area, built on first use; a rule with slots does nothing
  // where the context has no state to give.
  std::byte* area = nullptr;
  if (!def_->slots.empty()) {
    area = def_->key == KeyKind::kAor ? ctx.principal_slot<std::byte>(event.aor)
                                      : ctx.session_slot<std::byte>(event.session);
    if (area == nullptr) return;
  }

  uint32_t pc = h.begin;
  while (pc < h.end) {
    const StmtOp& op = def_->stmts[pc];
    switch (op.kind) {
      case StmtOpKind::kBranchIfFalse:
        if (eval(def_->exprs[op.expr], event, area, ctx).i == 0) {
          pc = op.target;
          continue;
        }
        break;
      case StmtOpKind::kJump:
        pc = op.target;
        continue;
      case StmtOpKind::kSetSlot: {
        const Value v = eval(def_->exprs[op.expr], event, area, ctx);
        if (def_->slots[op.slot].type == ValType::kString) {
          at<std::string>(area, op.slot) = *v.s;
        } else {
          at<int64_t>(area, op.slot) = v.i;
        }
        break;
      }
      case StmtOpKind::kAddEvent:
        at<int64_t>(area, op.slot) |=
            static_cast<int64_t>(uint64_t{1} << static_cast<size_t>(event.type));
        break;
      case StmtOpKind::kAddInt:
        at<int64_t>(area, op.slot) += 1;
        break;
      case StmtOpKind::kAddTime:
        at<Window>(area, op.slot).add(event.time, def_->slots[op.slot].span);
        break;
      case StmtOpKind::kAddString:
        at<std::set<std::string>>(area, op.slot)
            .insert(*eval(def_->exprs[op.expr], event, area, ctx).s);
        break;
      case StmtOpKind::kAlert: {
        const AlertTemplate& tmpl = def_->alerts[op.alert];
        ctx.raise(def_->name, tmpl.severity, event, render(tmpl.pieces, event, area, ctx));
        break;
      }
      case StmtOpKind::kVerdict: {
        const VerdictTemplate& tmpl = def_->verdicts[op.alert];
        ctx.verdict(def_->name, tmpl.action, event, render(tmpl.pieces, event, area, ctx));
        break;
      }
    }
    ++pc;
  }
}

SimDuration CompiledRule::horizon() const {
  SimDuration longest = 0;
  for (const SlotDecl& slot : def_->slots) longest = std::max(longest, slot.span);
  for (const ExprProgram& program : def_->exprs) {
    for (const ExprOp& op : program.ops) {
      if (op.kind == ExprOpKind::kPushInt && op.type == ValType::kDuration) {
        longest = std::max(longest, op.imm);
      }
    }
  }
  return longest;
}

}  // namespace scidive::ruledsl
