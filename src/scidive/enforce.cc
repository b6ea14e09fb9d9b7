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
  if (entries_.size() >= config_.max_entries) {
    ++rejected_total_;
    return false;
  }
  entries_.insert_or_assign(key, Entry{expires, action});
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
  return n;
}

// --- SharedEnforcement -----------------------------------------------------

namespace {

uint32_t pack_enforcement(VerdictAction action, SimTime expires_at) {
  const SimTime whole_sec = expires_at <= 0 ? 0 : (expires_at + 999'999) / 1'000'000;
  constexpr uint64_t kMaxSec = (uint64_t{1} << 30) - 1;
  const uint64_t capped = std::min(static_cast<uint64_t>(whole_sec), kMaxSec);
  return static_cast<uint32_t>(capped << 2) | static_cast<uint32_t>(action);
}

}  // namespace

void SharedEnforcement::publish(uint64_t key, VerdictAction action, SimTime expires_at) {
  const uint32_t packed = pack_enforcement(action, expires_at);
  uint32_t cur;
  if (published_.find(key, cur)) {
    // Take the max of the deadline and of the action independently.
    const uint32_t merged = std::max(cur & ~uint32_t{3}, packed & ~uint32_t{3}) |
                            std::max(cur & 3, packed & 3);
    if (merged != cur) published_.insert_or_assign(key, merged);
    return;
  }
  published_.insert_or_assign(key, packed);
}

VerdictAction SharedEnforcement::published(uint64_t key, SimTime now) const {
  if (published_.size() == 0) return VerdictAction::kPass;  // common-path fast exit
  uint32_t packed;
  if (!published_.find(key, packed)) return VerdictAction::kPass;
  const SimTime expires = static_cast<SimTime>(packed >> 2) * 1'000'000;
  if (expires <= now) return VerdictAction::kPass;
  return static_cast<VerdictAction>(packed & 3);
}

// --- Enforcer --------------------------------------------------------------

Enforcer::Enforcer(EnforceConfig config)
    : config_(config),
      blocks_(BlockListConfig{config.block_ttl, config.max_blocked}),
      limiter_(config.limiter) {}

void Enforcer::apply(const Verdict& verdict) {
  const SimTime now = verdict.time;
  const uint64_t src =
      verdict.endpoint.addr.is_unspecified() ? 0 : source_key(verdict.endpoint.addr);
  const uint64_t sess = verdict.session.empty() ? 0 : session_key(verdict.session);
  const uint64_t principal = verdict.aor.empty() ? 0 : aor_key(verdict.aor);

  switch (verdict.action) {
    case VerdictAction::kPass:
      return;
    case VerdictAction::kDrop: {
      const uint64_t key = src != 0 ? src : sess;
      if (key == 0) return;
      if (blocks_.block(key, VerdictAction::kDrop, now) && shared_ != nullptr) {
        shared_->publish(key, VerdictAction::kDrop, now + config_.block_ttl);
      }
      return;
    }
    case VerdictAction::kQuarantine: {
      const uint64_t key = sess != 0 ? sess : src;
      if (key == 0) return;
      if (blocks_.block(key, VerdictAction::kQuarantine, now) && shared_ != nullptr) {
        shared_->publish(key, VerdictAction::kQuarantine, now + config_.block_ttl);
      }
      return;
    }
    case VerdictAction::kRateLimit: {
      const uint64_t key = principal != 0 ? principal : src;
      if (key == 0) return;
      if (limiter_.arm(key, now) && shared_ != nullptr) {
        shared_->publish(key, VerdictAction::kRateLimit, now + config_.block_ttl);
      }
      return;
    }
  }
}

VerdictAction Enforcer::adopt_shared(uint64_t src_key, uint64_t sess_key,
                                     uint64_t principal_key, SimTime now) {
  VerdictAction act = VerdictAction::kPass;
  const uint64_t keys[3] = {src_key, sess_key, principal_key};
  for (uint64_t key : keys) {
    if (key == 0) continue;
    const VerdictAction p = shared_->published(key, now);
    if (p == VerdictAction::kRateLimit) {
      // Another shard graylisted this principal: arm a local bucket so
      // token accounting happens here too.
      limiter_.arm(key, now);
    } else {
      act = max_action(act, p);
    }
  }
  return act;
}

VerdictAction Enforcer::decide(uint64_t src_key, uint64_t sess_key, uint64_t principal_key,
                               SimTime now) {
  VerdictAction act = VerdictAction::kPass;
  const uint64_t keys[3] = {src_key, sess_key, principal_key};
  for (uint64_t key : keys) {
    if (key != 0) act = max_action(act, blocks_.lookup(key, now));
  }
  if (shared_ != nullptr) {
    act = max_action(act, adopt_shared(src_key, sess_key, principal_key, now));
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
    if (shared_ != nullptr && key != 0) {
      const VerdictAction p = shared_->published(key, now);
      if (p != VerdictAction::kRateLimit) act = max_action(act, p);
    }
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
