// Compiled representation of a ruleset: per-rule flat statement programs
// with branch targets, RPN expression programs evaluated on a fixed-size
// stack, per-EventType handler ranges and the event-subscription mask.
// Everything is allocated at compile (load) time; executing a program
// against an event allocates nothing until an alert actually fires.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "scidive/rule.h"

namespace scidive::ruledsl {

/// Static type of every expression; checked at compile time so evaluation
/// needs no runtime tags.
enum class ValType : uint8_t {
  kInt,       // event value, count() results, integer literals
  kDuration,  // microsecond spans (60s literals, since())
  kTime,      // absolute SimTime (the `time` field, time slots, never)
  kBool,
  kString,    // AOR/detail/session fields, string literals & slots
  kAddr,      // IPv4 address
  kEndpoint,  // addr:port
  kEventSet,  // bitmask over EventType (accumulating evidence sets)
  kWindow,     // event times of the last `span` (sliding-window counts)
  kStringSet,  // distinct strings seen (e.g. digest responses)
};

std::string_view val_type_name(ValType t);

/// Event fields readable in expressions. kRegisteredAt is derived rather
/// than carried: when the registrar last accepted addr(endpoint) for the
/// event's AOR, read from the AOR's principal record (never if it did not).
enum class Field : uint8_t { kAor, kEndpoint, kValue, kDetail, kSession, kTime, kRegisteredAt };

/// The uninitialized value for time slots: `never`. since()/within() treat
/// it as infinitely long ago / not within any window.
inline constexpr int64_t kNever = INT64_MIN;

enum class ExprOpKind : uint8_t {
  kPushInt,    // imm -> stack (int/duration/time/bool/addr/endpoint/eventset bits)
  kPushString, // strings[str_index] -> stack
  kPushField,  // field -> stack
  kPushSlot,   // slot value -> stack
  kAddrOf,     // pop endpoint, push its address
  kSince,      // pop time, push event.time - it (kNever -> INT64_MAX)
  kWithin,     // pop time; push bool: it != never && event.time - it <= imm
  kCount,      // pop eventset, push popcount
  kCountEntries,  // push the entries held by window/stringset slot `slot`
  kHasTrail,   // push bool: session has a trail for protocol imm
  kCmpEq,      // pop b, a; push a == b (type tells string vs numeric)
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kAnd,  // pop b, a; push a && b (operands are pure, so no short-circuit)
  kOr,
  kNot,
};

struct ExprOp {
  ExprOpKind kind;
  ValType type = ValType::kInt;  // operand type for kCmp*, field type for kPushField
  Field field = Field::kAor;
  int64_t imm = 0;
  uint32_t slot = 0;
  uint32_t str_index = 0;
};

/// One RPN program; evaluating it leaves exactly one value on the stack.
struct ExprProgram {
  std::vector<ExprOp> ops;
  ValType result = ValType::kBool;
  uint32_t max_stack = 0;
};

/// Bound for ExprProgram::max_stack (the evaluator's stack is this deep).
inline constexpr uint32_t kMaxEvalStack = 32;

/// One piece of an alert message: either literal text or a formatted hole.
struct AlertPiece {
  enum class Format : uint8_t {
    kDefault,  // by type: numbers %lld, strings verbatim, endpoints a.b.c.d:p,
               // bools true/false, eventsets ", "-joined event type names
    kSec1,     // durations as seconds with one decimal (%.1f)
  };
  std::string literal;      // used when expr_index < 0
  int32_t expr_index = -1;  // index into CompiledRuleDef::exprs
  Format format = Format::kDefault;
};

struct AlertTemplate {
  core::Severity severity = core::Severity::kWarning;
  std::vector<AlertPiece> pieces;
};

/// A `verdict` statement: the prevention-side twin of an alert template.
/// Rendering reuses AlertPiece; the action names what enforcement should do.
struct VerdictTemplate {
  core::VerdictAction action = core::VerdictAction::kDrop;
  std::vector<AlertPiece> pieces;
};

enum class StmtOpKind : uint8_t {
  kBranchIfFalse,  // evaluate exprs[expr]; jump to target when false
  kJump,           // jump to target
  kSetSlot,        // slots[slot] = evaluate exprs[expr]
  kAddEvent,       // eventset slots[slot] |= bit(event.type)
  kAddInt,         // int slots[slot] += 1 (the `add` counter form)
  kAddTime,        // window slots[slot]: append event.time, drop times older than its span
  kAddString,      // stringset slots[slot]: insert evaluate exprs[expr]
  kAlert,          // render alerts[alert] and raise
  kVerdict,        // render verdicts[alert] and emit via ctx.verdict()
};

struct StmtOp {
  StmtOpKind kind;
  uint32_t expr = 0;
  uint32_t slot = 0;
  uint32_t alert = 0;   // kAlert: alerts index; kVerdict: verdicts index
  uint32_t target = 0;  // stmt index (branch/jump)
};

struct SlotDecl {
  std::string name;
  ValType type = ValType::kInt;
  int64_t init = 0;        // numeric initial value (times default to kNever)
  std::string str_init;    // string slots' initial value
  uint32_t str_index = 0;  // sub-index into the record's string storage
  uint32_t coll_index = 0; // window/stringset: sub-index into the record's windows/sets
  int64_t span = 0;        // window: how far back it holds event times (µs)
};

/// What a rule keys its per-entry state on.
enum class KeyKind : uint8_t { kSession, kAor };

struct HandlerRange {
  uint32_t begin = 0;
  uint32_t end = 0;  // begin == end: rule ignores this event type
};

/// One fully compiled rule. Immutable after compilation; CompiledRule
/// instances (one per shard) share it by shared_ptr and keep only their own
/// mutable per-key records.
struct CompiledRuleDef {
  std::string name;
  KeyKind key = KeyKind::kSession;
  std::vector<SlotDecl> slots;
  uint32_t num_string_slots = 0;
  uint32_t num_windows = 0;
  uint32_t num_sets = 0;
  std::vector<std::string> strings;  // interned string literals
  std::vector<ExprProgram> exprs;
  std::vector<AlertTemplate> alerts;
  std::vector<VerdictTemplate> verdicts;
  std::vector<StmtOp> stmts;
  HandlerRange handlers[core::kEventTypeCount] = {};
  core::EventTypeMask subscriptions = 0;
};

/// Values for rule parameters by "rule.param" name, overriding the defaults
/// the source declares (durations in microseconds). Naming a parameter no
/// rule declares is a compile error.
using ParamOverrides = std::map<std::string, int64_t, std::less<>>;

struct CompiledRuleset {
  std::vector<std::shared_ptr<const CompiledRuleDef>> rules;

  /// Human-readable disassembly (scidive_rulec --dump).
  std::string dump() const;
};

}  // namespace scidive::ruledsl
