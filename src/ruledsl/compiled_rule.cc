#include "ruledsl/compiled_rule.h"

#include <bit>

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

/// Whether records of `def` need out-of-line storage.
bool has_storage(const CompiledRuleDef& def) {
  return def.num_string_slots + def.num_windows + def.num_sets != 0;
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

void CompiledRule::init(Record& rec) const {
  rec.nums.reserve(def_->slots.size());
  for (const SlotDecl& slot : def_->slots) rec.nums.push_back(slot.init);
  if (!has_storage(*def_)) return;
  rec.more = std::make_unique<Storage>();
  rec.more->strs.resize(def_->num_string_slots);
  rec.more->windows.resize(def_->num_windows);
  rec.more->sets.resize(def_->num_sets);
  for (const SlotDecl& slot : def_->slots) {
    if (slot.type == ValType::kString) rec.more->strs[slot.str_index] = slot.str_init;
  }
}

bool CompiledRule::fits(const Record& rec) const {
  if (rec.nums.size() != def_->slots.size()) return false;
  if (rec.more == nullptr) return !has_storage(*def_);
  return rec.more->strs.size() == def_->num_string_slots &&
         rec.more->windows.size() == def_->num_windows && rec.more->sets.size() == def_->num_sets;
}

CompiledRule::Record* CompiledRule::record_for(const core::Event& event,
                                               core::RuleContext& ctx) {
  std::unique_ptr<core::RuleSessionState>* slot = def_->key == KeyKind::kAor
                                                       ? ctx.principal_slot(event.aor)
                                                       : ctx.session_slot(event.session);
  if (slot == nullptr) return nullptr;
  auto* rec = static_cast<Record*>(slot->get());
  // A layout that does not match the definition means the record was
  // written by another revision of this rule (a session or principal that
  // migrated mid-hot-reload); reading it would misindex slots, so start
  // over.
  if (rec == nullptr || !fits(*rec)) {
    *slot = std::make_unique<Record>();
    rec = static_cast<Record*>(slot->get());
    init(*rec);
  }
  return rec;
}

CompiledRule::Value CompiledRule::eval(const ExprProgram& program, const core::Event& event,
                                       const Record* rec, core::RuleContext& ctx) const {
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
        const SlotDecl& slot = def_->slots[op.slot];
        if (slot.type == ValType::kString) {
          stack[top].i = 0;
          stack[top++].s = &rec->more->strs[slot.str_index];
        } else {
          stack[top++].i = rec->nums[op.slot];
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
      case ExprOpKind::kCountEntries: {
        const SlotDecl& slot = def_->slots[op.slot];
        stack[top++].i = static_cast<int64_t>(slot.type == ValType::kWindow
                                                  ? rec->more->windows[slot.coll_index].size()
                                                  : rec->more->sets[slot.coll_index].size());
        break;
      }
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
                                 const core::Event& event, const Record* rec,
                                 core::RuleContext& ctx) const {
  std::string out;
  for (const AlertPiece& piece : pieces) {
    if (piece.expr_index < 0) {
      out += piece.literal;
      continue;
    }
    const ExprProgram& program = def_->exprs[static_cast<size_t>(piece.expr_index)];
    const Value v = eval(program, event, rec, ctx);
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
  Record* rec = nullptr;
  if (!def_->slots.empty()) {
    rec = record_for(event, ctx);
    if (rec == nullptr) return;
  }

  uint32_t pc = h.begin;
  while (pc < h.end) {
    const StmtOp& op = def_->stmts[pc];
    switch (op.kind) {
      case StmtOpKind::kBranchIfFalse:
        if (eval(def_->exprs[op.expr], event, rec, ctx).i == 0) {
          pc = op.target;
          continue;
        }
        break;
      case StmtOpKind::kJump:
        pc = op.target;
        continue;
      case StmtOpKind::kSetSlot: {
        const Value v = eval(def_->exprs[op.expr], event, rec, ctx);
        const SlotDecl& slot = def_->slots[op.slot];
        if (slot.type == ValType::kString) {
          rec->more->strs[slot.str_index] = *v.s;
        } else {
          rec->nums[op.slot] = v.i;
        }
        break;
      }
      case StmtOpKind::kAddEvent:
        rec->nums[op.slot] |= static_cast<int64_t>(uint64_t{1} << static_cast<size_t>(event.type));
        break;
      case StmtOpKind::kAddInt:
        rec->nums[op.slot] += 1;
        break;
      case StmtOpKind::kAddTime: {
        const SlotDecl& slot = def_->slots[op.slot];
        rec->more->windows[slot.coll_index].add(event.time, slot.span);
        break;
      }
      case StmtOpKind::kAddString:
        rec->more->sets[def_->slots[op.slot].coll_index].insert(
            *eval(def_->exprs[op.expr], event, rec, ctx).s);
        break;
      case StmtOpKind::kAlert: {
        const AlertTemplate& tmpl = def_->alerts[op.alert];
        ctx.raise(def_->name, tmpl.severity, event, render(tmpl.pieces, event, rec, ctx));
        break;
      }
      case StmtOpKind::kVerdict: {
        const VerdictTemplate& tmpl = def_->verdicts[op.alert];
        ctx.verdict(def_->name, tmpl.action, event, render(tmpl.pieces, event, rec, ctx));
        break;
      }
    }
    ++pc;
  }
}

}  // namespace scidive::ruledsl
