// Enforcement primitives behind the verdict layer: a token-bucket
// RateLimiter and a TTL BlockList, both keyed by tagged 64-bit keys and
// stored in FlatMaps so the packet-path lookups ("is this source blocked?
// is this caller graylisted?") are a hash and a cache line — no heap
// traffic, no strings.
//
// Keys are content-derived, not interner-local: a key is an EnforceKeyKind
// tag in the top byte over a 56-bit hash of the identity (source address,
// AOR spelling, session id). Content derivation is what lets a verdict
// computed on one shard (or on a fleet peer) mean the same thing in every
// other shard's Enforcer it is forwarded to — symbol ids are per-interner,
// hashes are not.
//
// The Enforcer composes the two stores and owns the action semantics:
//   drop        -> block the source (TTL), fall back to the session;
//   quarantine  -> block the session (TTL), fall back to the source;
//   rate_limit  -> arm a token bucket on the principal (AOR), fall back
//                  to the source; packets that present an armed key and
//                  find the bucket empty decide kRateLimit.
// decide() is the engine's mutating per-packet evaluation (consumes
// tokens); peek() is the non-mutating variant for external enforcement
// points (proxy screen, router filter), so a packet that traverses both a
// tap and a forwarding element is charged exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/flat_map.h"
#include "pkt/addr.h"
#include "scidive/verdict.h"

namespace scidive::core {

/// How the deployment consumes decisions. The engine computes identical
/// decisions in passive and inline mode — that identity is the passive
/// dry-run claim — only the enforcement points change behavior: passive
/// records would-have-dropped counters, inline actually drops.
enum class EnforcementMode : uint8_t { kOff = 0, kPassive = 1, kInline = 2 };

constexpr std::string_view enforcement_mode_name(EnforcementMode m) {
  switch (m) {
    case EnforcementMode::kOff: return "off";
    case EnforcementMode::kPassive: return "passive";
    case EnforcementMode::kInline: return "inline";
  }
  return "?";
}

// --- tagged keys -----------------------------------------------------------

enum class EnforceKeyKind : uint8_t { kSource = 1, kAor = 2, kSession = 3 };

constexpr uint64_t enforce_key(EnforceKeyKind kind, uint64_t low) {
  return static_cast<uint64_t>(kind) << 56 | (low & ((uint64_t{1} << 56) - 1));
}

/// Source key: the address alone (port-less — an attacker hops ports).
constexpr uint64_t source_key(pkt::Ipv4Address addr) {
  return enforce_key(EnforceKeyKind::kSource, addr.value());
}

inline uint64_t hashed_key(EnforceKeyKind kind, std::string_view identity) {
  return enforce_key(kind, flat_mix64(std::hash<std::string_view>{}(identity)));
}

inline uint64_t aor_key(std::string_view aor) {
  return hashed_key(EnforceKeyKind::kAor, aor);
}
inline uint64_t session_key(std::string_view session) {
  return hashed_key(EnforceKeyKind::kSession, session);
}

// --- token buckets ---------------------------------------------------------

struct RateLimiterConfig {
  /// Refill rate once a key is graylisted. The default shapes a spammer to
  /// one admitted attempt per 5 simulated seconds.
  double rate_per_sec = 0.2;
  /// Bucket capacity (burst). New buckets start full so the first attempts
  /// after graylisting are admitted, then the rate bites.
  double burst = 2.0;
  /// Bound on concurrent buckets; arms beyond it are rejected and counted.
  size_t max_entries = 8192;
};

/// Token buckets over tagged keys. A key with no bucket is unlimited; arm()
/// installs one. Invariants the property tests pin: tokens never negative,
/// tokens never exceed burst, refill is monotone in elapsed time, and a
/// backward time step refills nothing (clocks across shards may skew).
class RateLimiter {
 public:
  explicit RateLimiter(RateLimiterConfig config = {}) : config_(config) {}

  /// Install a bucket for `key` (idempotent: an existing bucket keeps its
  /// state). Returns false when rejected at the capacity bound.
  bool arm(uint64_t key, SimTime now);

  /// True when `key` is unlimited or its bucket holds a whole token
  /// (which is then consumed).
  bool admit(uint64_t key, SimTime now);

  /// Non-mutating admit(): no token is consumed, no refill is stored.
  bool would_admit(uint64_t key, SimTime now) const;

  bool armed(uint64_t key) const { return buckets_.contains(key); }
  /// Tokens the bucket would hold at `now` (-1 when the key is unlimited).
  double tokens(uint64_t key, SimTime now) const;
  void disarm(uint64_t key) { buckets_.erase(key); }
  void clear() { buckets_.clear(); }

  size_t size() const { return buckets_.size(); }
  uint64_t armed_total() const { return armed_total_; }
  uint64_t denied_total() const { return denied_total_; }
  uint64_t rejected_total() const { return rejected_total_; }
  /// Sum of whole tokens available across buckets as of each bucket's last
  /// refill (no clock input, so snapshot-safe and deterministic).
  int64_t stored_tokens() const;

  const RateLimiterConfig& config() const { return config_; }

 private:
  struct Bucket {
    double tokens = 0;
    SimTime last = 0;
  };

  double refilled(const Bucket& b, SimTime now) const;

  RateLimiterConfig config_;
  FlatMap<uint64_t, Bucket> buckets_;
  uint64_t armed_total_ = 0;
  uint64_t denied_total_ = 0;
  uint64_t rejected_total_ = 0;
};

// --- block list ------------------------------------------------------------

struct BlockListConfig {
  SimDuration ttl = sec(60);
  /// Bound on concurrent entries; blocks beyond it are rejected and
  /// counted (the attacker must not be able to grow IDS memory).
  size_t max_entries = 8192;
};

/// TTL block list over tagged keys. Expiry is lazy (a lookup that finds an
/// expired entry erases it) plus sweep(), which block() also runs when the
/// table is at its cap and an entry may have expired; an entry re-blocked
/// before expiry has its TTL extended, never shortened.
class BlockList {
 public:
  explicit BlockList(BlockListConfig config = {}) : config_(config) {}

  /// Returns false when rejected at the capacity bound, which counts only
  /// live entries: expired ones are swept (and counted expired) first.
  bool block(uint64_t key, VerdictAction action, SimTime now);

  /// Action for `key` at `now` (kPass when absent or expired; expired
  /// entries are erased on the way out).
  VerdictAction lookup(uint64_t key, SimTime now);

  /// Non-mutating lookup (expired entries report kPass but stay put).
  VerdictAction peek(uint64_t key, SimTime now) const;

  /// Erase every expired entry; returns how many.
  size_t sweep(SimTime now);

  size_t size() const { return entries_.size(); }
  uint64_t installed_total() const { return installed_total_; }
  uint64_t expired_total() const { return expired_total_; }
  uint64_t rejected_total() const { return rejected_total_; }
  void clear() { entries_.clear(); }

  const BlockListConfig& config() const { return config_; }

 private:
  struct Entry {
    SimTime expires_at = 0;
    VerdictAction action = VerdictAction::kDrop;
  };

  BlockListConfig config_;
  FlatMap<uint64_t, Entry> entries_;
  /// No entry expires before this (a bound: lookups and extensions leave
  /// it low, a sweep makes it exact).
  SimTime earliest_expiry_ = INT64_MAX;
  uint64_t installed_total_ = 0;
  uint64_t expired_total_ = 0;
  uint64_t rejected_total_ = 0;
};

// --- the enforcer ----------------------------------------------------------

struct EnforceConfig {
  EnforcementMode mode = EnforcementMode::kOff;
  SimDuration block_ttl = sec(60);
  RateLimiterConfig limiter;
  size_t max_blocked = 8192;
  size_t verdict_capacity = VerdictSink::kDefaultCapacity;
};

/// What one verdict installs: a block on one key (drop, quarantine) or a
/// bucket armed on one key (rate_limit), as of the verdict's time. Key 0
/// installs nothing.
struct Enforcement {
  uint64_t key = 0;
  VerdictAction action = VerdictAction::kPass;
  SimTime time = 0;
};

/// Applies verdicts to the stores and evaluates per-packet decisions.
class Enforcer {
 public:
  explicit Enforcer(EnforceConfig config);

  EnforcementMode mode() const { return config_.mode; }
  bool inline_mode() const { return config_.mode == EnforcementMode::kInline; }

  /// The key and action `verdict` resolves to (see the header comment).
  static Enforcement enforcement_of(const Verdict& verdict);

  /// Consume one rule-emitted verdict: install its block or arm its bucket,
  /// and record it in the outbox when one is attached.
  void apply(const Verdict& verdict);
  /// Install an enforcement resolved elsewhere (a sibling shard's rule, a
  /// fleet peer). It never reaches the outbox, so it is never forwarded
  /// again. The stores merge: a block keeps the max action and the later
  /// expiry, and arming an armed bucket is a no-op.
  void apply(const Enforcement& enforcement);

  /// Where apply(const Verdict&) records what it installs, for a sharded
  /// engine to forward to its other shards. nullptr (the default) records
  /// nothing.
  void set_outbox(std::vector<Enforcement>* outbox) { outbox_ = outbox; }

  /// Mutating per-packet decision over the packet's identity keys (0 for
  /// an absent identity — e.g. RTP has no AOR). Consumes a token when a
  /// rate-limited key is presented.
  VerdictAction decide(uint64_t src_key, uint64_t sess_key, uint64_t principal_key,
                       SimTime now);

  /// Non-mutating decide() for external enforcement points.
  VerdictAction peek(uint64_t src_key, uint64_t sess_key, uint64_t principal_key,
                     SimTime now) const;

  BlockList& blocks() { return blocks_; }
  const BlockList& blocks() const { return blocks_; }
  RateLimiter& limiter() { return limiter_; }
  const RateLimiter& limiter() const { return limiter_; }
  const EnforceConfig& config() const { return config_; }

 private:
  EnforceConfig config_;
  BlockList blocks_;
  RateLimiter limiter_;
  std::vector<Enforcement>* outbox_ = nullptr;
};

}  // namespace scidive::core
