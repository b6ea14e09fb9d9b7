#include "scidive/enforce.h"

#include <algorithm>
#include <cmath>

namespace scidive::core {

// --- RateLimiter -----------------------------------------------------------

double RateLimiter::refilled(const Bucket& b, SimTime now) const {
  // A backward or equal clock refills nothing (shards may observe skewed
  // timestamps); forward time refills linearly, capped at the burst.
  if (now <= b.last) return b.tokens;
  const double dt_sec = static_cast<double>(now - b.last) * 1e-6;
  const double t = b.tokens + dt_sec * config_.rate_per_sec;
  return t > config_.burst ? config_.burst : t;
}

bool RateLimiter::arm(uint64_t key, SimTime now) {
  if (buckets_.contains(key)) return true;
  if (buckets_.size() >= config_.max_entries) {
    ++rejected_total_;
    return false;
  }
  buckets_.insert_or_assign(key, Bucket{config_.burst, now});
  ++armed_total_;
  return true;
}

bool RateLimiter::admit(uint64_t key, SimTime now) {
  Bucket* b = buckets_.find(key);
  if (b == nullptr) return true;
  const double t = refilled(*b, now);
  if (now > b->last) b->last = now;
  if (t >= 1.0) {
    b->tokens = t - 1.0;
    return true;
  }
  b->tokens = t;
  ++denied_total_;
  return false;
}

bool RateLimiter::would_admit(uint64_t key, SimTime now) const {
  const Bucket* b = buckets_.find(key);
  return b == nullptr || refilled(*b, now) >= 1.0;
}

double RateLimiter::tokens(uint64_t key, SimTime now) const {
  const Bucket* b = buckets_.find(key);
  return b == nullptr ? -1.0 : refilled(*b, now);
}

int64_t RateLimiter::stored_tokens() const {
  int64_t sum = 0;
  buckets_.for_each([&sum](const uint64_t&, const Bucket& b) {
    sum += static_cast<int64_t>(std::floor(b.tokens));
  });
  return sum;
}

// --- BlockList -------------------------------------------------------------

bool BlockList::block(uint64_t key, VerdictAction action, SimTime now) {
  const SimTime expires = now + config_.ttl;
  if (Entry* e = entries_.find(key)) {
    // Re-blocking extends (never shortens) the TTL and never downgrades
    // the action: a quarantined session upgraded to drop stays dropped.
    if (expires > e->expires_at) e->expires_at = expires;
    e->action = max_action(e->action, action);
    return true;
  }
  // At the cap, expired entries make room first; only a table of live
  // entries rejects. The earliest expiry bounds when a sweep can free one,
  // so a full table of live entries rejects without a scan.
  if (entries_.size() >= config_.max_entries &&
      (earliest_expiry_ > now || sweep(now) == 0)) {
    ++rejected_total_;
    return false;
  }
  entries_.insert_or_assign(key, Entry{expires, action});
  earliest_expiry_ = std::min(earliest_expiry_, expires);
  ++installed_total_;
  return true;
}

VerdictAction BlockList::lookup(uint64_t key, SimTime now) {
  Entry* e = entries_.find(key);
  if (e == nullptr) return VerdictAction::kPass;
  if (e->expires_at <= now) {
    entries_.erase(key);
    ++expired_total_;
    return VerdictAction::kPass;
  }
  return e->action;
}

VerdictAction BlockList::peek(uint64_t key, SimTime now) const {
  const Entry* e = entries_.find(key);
  if (e == nullptr || e->expires_at <= now) return VerdictAction::kPass;
  return e->action;
}

size_t BlockList::sweep(SimTime now) {
  const size_t n = entries_.erase_if(
      [now](const uint64_t&, const Entry& e) { return e.expires_at <= now; });
  expired_total_ += n;
  earliest_expiry_ = INT64_MAX;
  entries_.for_each([this](const uint64_t&, const Entry& e) {
    earliest_expiry_ = std::min(earliest_expiry_, e.expires_at);
  });
  return n;
}

// --- Enforcer --------------------------------------------------------------

Enforcer::Enforcer(EnforceConfig config)
    : config_(config),
      blocks_(BlockListConfig{config.block_ttl, config.max_blocked}),
      limiter_(config.limiter) {}

Enforcement Enforcer::enforcement_of(const Verdict& verdict) {
  const uint64_t src =
      verdict.endpoint.addr.is_unspecified() ? 0 : source_key(verdict.endpoint.addr);
  const uint64_t sess = verdict.session.empty() ? 0 : session_key(verdict.session);
  const uint64_t principal = verdict.aor.empty() ? 0 : aor_key(verdict.aor);
  switch (verdict.action) {
    case VerdictAction::kPass:
      return {};
    case VerdictAction::kDrop:
      return {src != 0 ? src : sess, verdict.action, verdict.time};
    case VerdictAction::kQuarantine:
      return {sess != 0 ? sess : src, verdict.action, verdict.time};
    case VerdictAction::kRateLimit:
      return {principal != 0 ? principal : src, verdict.action, verdict.time};
  }
  return {};
}

void Enforcer::apply(const Verdict& verdict) {
  const Enforcement enforcement = enforcement_of(verdict);
  if (enforcement.key == 0) return;
  apply(enforcement);
  if (outbox_ != nullptr) outbox_->push_back(enforcement);
}

void Enforcer::apply(const Enforcement& enforcement) {
  if (enforcement.key == 0 || enforcement.action == VerdictAction::kPass) return;
  if (enforcement.action == VerdictAction::kRateLimit) {
    limiter_.arm(enforcement.key, enforcement.time);
  } else {
    blocks_.block(enforcement.key, enforcement.action, enforcement.time);
  }
}

VerdictAction Enforcer::decide(uint64_t src_key, uint64_t sess_key, uint64_t principal_key,
                               SimTime now) {
  VerdictAction act = VerdictAction::kPass;
  const uint64_t keys[3] = {src_key, sess_key, principal_key};
  for (uint64_t key : keys) {
    if (key != 0) act = max_action(act, blocks_.lookup(key, now));
  }
  if (act != VerdictAction::kPass) return act;  // blocks hold only quarantine/drop

  // Principal identity outranks network identities for shaping: the bucket
  // a rule armed by AOR is the one a spammer's next attempt is charged to.
  const uint64_t shaped[3] = {principal_key, src_key, sess_key};
  for (uint64_t key : shaped) {
    if (key != 0 && limiter_.armed(key)) {
      return limiter_.admit(key, now) ? VerdictAction::kPass : VerdictAction::kRateLimit;
    }
  }
  return VerdictAction::kPass;
}

VerdictAction Enforcer::peek(uint64_t src_key, uint64_t sess_key, uint64_t principal_key,
                             SimTime now) const {
  VerdictAction act = VerdictAction::kPass;
  const uint64_t keys[3] = {src_key, sess_key, principal_key};
  for (uint64_t key : keys) {
    if (key != 0) act = max_action(act, blocks_.peek(key, now));
  }
  if (act != VerdictAction::kPass) return act;

  const uint64_t shaped[3] = {principal_key, src_key, sess_key};
  for (uint64_t key : shaped) {
    if (key != 0 && limiter_.armed(key)) {
      return limiter_.would_admit(key, now) ? VerdictAction::kPass
                                            : VerdictAction::kRateLimit;
    }
  }
  return VerdictAction::kPass;
}

}  // namespace scidive::core
