// Property tests for the enforcement primitives behind the verdict layer.
// The token bucket is checked against a randomized oracle (10k operations
// against an independently-computed model), the block list against its TTL
// edge cases, and both against adversarial churn: 100k distinct keys must
// neither grow memory past the configured bound nor corrupt survivors.
#include "scidive/enforce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace scidive::core {
namespace {

// --- tagged keys -----------------------------------------------------------

TEST(EnforceKeys, TagLivesInTopByteAndLowBitsSurvive) {
  const uint64_t k = enforce_key(EnforceKeyKind::kSession, 0x1234'5678'9abc'def0);
  EXPECT_EQ(k >> 56, static_cast<uint64_t>(EnforceKeyKind::kSession));
  EXPECT_EQ(k & ((uint64_t{1} << 56) - 1), 0x34'5678'9abc'def0u);
}

TEST(EnforceKeys, KindsNeverCollideOnTheSameIdentity) {
  // The same spelling as an AOR and as a session id must produce distinct
  // keys — blocking a session must not graylist a caller of the same name.
  EXPECT_NE(aor_key("alice@lab.net"), session_key("alice@lab.net"));
  EXPECT_NE(source_key(pkt::Ipv4Address(10, 0, 0, 1)),
            enforce_key(EnforceKeyKind::kSession, pkt::Ipv4Address(10, 0, 0, 1).value()));
}

TEST(EnforceKeys, ContentDerivedAcrossInstances) {
  // Two shards hashing the same identity independently agree — the property
  // forwarding a verdict to another shard's Enforcer rests on.
  EXPECT_EQ(aor_key("spambot@lab.net"), aor_key(std::string("spambot@lab.net")));
  EXPECT_EQ(source_key(pkt::Ipv4Address(10, 0, 0, 66)),
            source_key(pkt::Ipv4Address(10, 0, 0, 66)));
}

// --- token bucket: randomized oracle ---------------------------------------

TEST(RateLimiterProperty, TenThousandOpsAgainstOracle) {
  RateLimiterConfig config;
  config.rate_per_sec = 0.5;
  config.burst = 3.0;
  RateLimiter limiter(config);

  // Independent model of one bucket: tokens refill linearly with forward
  // time, cap at burst, and admit() consumes exactly one whole token.
  constexpr uint64_t kKey = 0x0200'0000'0000'0001;
  SimTime now = sec(1);
  ASSERT_TRUE(limiter.arm(kKey, now));
  double model_tokens = config.burst;
  SimTime model_last = now;
  uint64_t denied = 0;

  Rng rng(0x5c1d17e5);
  for (int i = 0; i < 10000; ++i) {
    // Mostly forward steps; occasionally a backward or zero step (skewed
    // shard clocks), which must refill nothing.
    const int64_t step = rng.chance(0.15) ? -rng.uniform_int(0, sec(2))
                                          : rng.uniform_int(0, sec(4));
    now = std::max<SimTime>(0, now + step);

    const double before = limiter.tokens(kKey, now);
    // Invariants at every observation point: never negative, never above
    // burst, and monotone in elapsed time from the last mutation.
    ASSERT_GE(before, 0.0);
    ASSERT_LE(before, config.burst + 1e-9);

    // Oracle refill.
    double expect = model_tokens;
    if (now > model_last) {
      expect = std::min(config.burst,
                        model_tokens + static_cast<double>(now - model_last) * 1e-6 *
                                           config.rate_per_sec);
    }
    ASSERT_NEAR(before, expect, 1e-6) << "op " << i;

    if (rng.chance(0.5)) {
      const bool admitted = limiter.admit(kKey, now);
      ASSERT_EQ(admitted, expect >= 1.0) << "op " << i;
      model_tokens = admitted ? expect - 1.0 : expect;
      if (now > model_last) model_last = now;
      if (!admitted) ++denied;
    } else {
      // would_admit is pure: it must agree with the oracle and must not
      // advance the model.
      ASSERT_EQ(limiter.would_admit(kKey, now), expect >= 1.0) << "op " << i;
    }
  }
  EXPECT_EQ(limiter.denied_total(), denied);
  EXPECT_EQ(limiter.size(), 1u);
}

TEST(RateLimiterProperty, UnarmedKeysAreUnlimited) {
  RateLimiter limiter;
  Rng rng(0xfeed);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t key = rng.next_u64() | 1;  // never the "absent" 0 key
    ASSERT_TRUE(limiter.admit(key, sec(i)));
    ASSERT_TRUE(limiter.would_admit(key, sec(i)));
  }
  EXPECT_EQ(limiter.size(), 0u);
  EXPECT_EQ(limiter.denied_total(), 0u);
}

TEST(RateLimiter, ArmIsIdempotentAndBucketsStartFull) {
  RateLimiterConfig config;
  config.burst = 2.0;
  config.rate_per_sec = 0.0;  // no refill: consumption alone drains
  RateLimiter limiter(config);
  const uint64_t key = aor_key("spambot@lab.net");
  ASSERT_TRUE(limiter.arm(key, sec(1)));
  EXPECT_TRUE(limiter.admit(key, sec(1)));   // burst token 1
  ASSERT_TRUE(limiter.arm(key, sec(2)));     // re-arm must not refill
  EXPECT_TRUE(limiter.admit(key, sec(2)));   // burst token 2
  EXPECT_FALSE(limiter.admit(key, sec(3)));  // empty
  EXPECT_EQ(limiter.armed_total(), 1u);
}

TEST(RateLimiter, CapacityBoundRejectsAndCounts) {
  RateLimiterConfig config;
  config.max_entries = 8;
  RateLimiter limiter(config);
  for (uint64_t i = 1; i <= 8; ++i) ASSERT_TRUE(limiter.arm(i, 0));
  EXPECT_FALSE(limiter.arm(100, 0));
  EXPECT_TRUE(limiter.arm(3, 0));  // existing keys still re-arm
  EXPECT_EQ(limiter.size(), 8u);
  EXPECT_EQ(limiter.rejected_total(), 1u);
}

// --- block list: TTL edges and churn ---------------------------------------

TEST(BlockList, ExpiryBoundaryIsExclusive) {
  BlockList blocks(BlockListConfig{sec(60), 64});
  const uint64_t key = source_key(pkt::Ipv4Address(10, 0, 0, 9));
  ASSERT_TRUE(blocks.block(key, VerdictAction::kDrop, sec(10)));
  EXPECT_EQ(blocks.lookup(key, sec(69)), VerdictAction::kDrop);
  EXPECT_EQ(blocks.peek(key, sec(70) - 1), VerdictAction::kDrop);
  // expires_at <= now: the entry is gone exactly at the deadline.
  EXPECT_EQ(blocks.peek(key, sec(70)), VerdictAction::kPass);
  EXPECT_EQ(blocks.size(), 1u);  // peek never erases
  EXPECT_EQ(blocks.lookup(key, sec(70)), VerdictAction::kPass);
  EXPECT_EQ(blocks.size(), 0u);  // lookup lazily erased it
  EXPECT_EQ(blocks.expired_total(), 1u);
}

TEST(BlockList, ReblockExtendsNeverShortensAndNeverDowngrades) {
  BlockList blocks(BlockListConfig{sec(60), 64});
  const uint64_t key = session_key("call-1");
  ASSERT_TRUE(blocks.block(key, VerdictAction::kDrop, sec(100)));  // expires 160
  // A later quarantine re-block: TTL extends to 170, action stays kDrop.
  ASSERT_TRUE(blocks.block(key, VerdictAction::kQuarantine, sec(110)));
  EXPECT_EQ(blocks.peek(key, sec(169)), VerdictAction::kDrop);
  EXPECT_EQ(blocks.peek(key, sec(170)), VerdictAction::kPass);
  // An *earlier* timestamp (skewed shard clock) must not shorten the TTL.
  BlockList skew(BlockListConfig{sec(60), 64});
  ASSERT_TRUE(skew.block(key, VerdictAction::kQuarantine, sec(100)));  // expires 160
  ASSERT_TRUE(skew.block(key, VerdictAction::kDrop, sec(50)));         // would expire 110
  EXPECT_EQ(skew.peek(key, sec(159)), VerdictAction::kDrop);  // upgraded AND still held
  EXPECT_EQ(blocks.installed_total(), 1u);
}

TEST(BlockList, SweepErasesExactlyTheExpired) {
  BlockList blocks(BlockListConfig{sec(10), 1024});
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(blocks.block(i, VerdictAction::kDrop, sec(i)));  // expires i+10
  }
  EXPECT_EQ(blocks.sweep(sec(60)), 50u);  // entries 1..50 expired at <= 60
  EXPECT_EQ(blocks.size(), 50u);
  EXPECT_EQ(blocks.expired_total(), 50u);
  EXPECT_EQ(blocks.peek(51, sec(60)), VerdictAction::kDrop);  // expires at 61: survives
  EXPECT_EQ(blocks.peek(50, sec(60)), VerdictAction::kPass);  // swept
}

TEST(BlockListProperty, HundredThousandSourceChurn) {
  // Adversarial churn: far more distinct sources than the capacity bound.
  // The list must hold its memory bound, reject (and count) the overflow,
  // and keep serving correct answers for the survivors throughout.
  BlockListConfig config;
  config.ttl = sec(30);
  config.max_entries = 4096;
  BlockList blocks(config);

  Rng rng(0xb10c);
  uint64_t accepted = 0, rejected = 0;
  SimTime now = 0;
  for (int i = 0; i < 100'000; ++i) {
    // About 15k arrivals per TTL: more live sources than the bound holds.
    now += msec(rng.uniform_int(0, 4));
    // Distinct sources (an odd multiplier is a bijection on 32 bits).
    const auto addr = pkt::Ipv4Address(static_cast<uint32_t>(i + 1) * 0x9e3779b1u);
    if (blocks.block(source_key(addr), VerdictAction::kDrop, now)) {
      ++accepted;
      ASSERT_EQ(blocks.peek(source_key(addr), now), VerdictAction::kDrop);
    } else {
      ++rejected;
      ASSERT_EQ(blocks.size(), config.max_entries);
      // Only a table of live entries rejects: nothing was left to sweep.
      if (rejected % 1024 == 0) {
        ASSERT_EQ(blocks.sweep(now), 0u);
      }
    }
    ASSERT_LE(blocks.size(), config.max_entries);
    if (i % 4096 == 0) blocks.sweep(now);
  }
  blocks.sweep(now + sec(31));
  EXPECT_EQ(blocks.size(), 0u);
  EXPECT_EQ(blocks.rejected_total(), rejected);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);  // the bound actually bit
  EXPECT_EQ(blocks.installed_total(), accepted);
  EXPECT_EQ(blocks.expired_total(), accepted);  // every accepted entry expired
}

TEST(BlockList, FullTableOfExpiredEntriesMakesRoom) {
  // Both caps at 4, four drops at 1 s, one new drop an hour later: the four
  // expired at 61 s, so the new one is installed, not rejected.
  EnforceConfig config;
  config.mode = EnforcementMode::kInline;
  config.max_blocked = 4;
  config.limiter.max_entries = 4;
  Enforcer enf(config);
  for (uint32_t i = 1; i <= 4; ++i) {
    enf.apply(Enforcement{source_key(pkt::Ipv4Address(10, 0, 0, i)), VerdictAction::kDrop,
                          sec(1)});
  }
  ASSERT_EQ(enf.blocks().size(), 4u);
  const uint64_t late = source_key(pkt::Ipv4Address(10, 0, 1, 1));
  enf.apply(Enforcement{late, VerdictAction::kDrop, sec(3600)});
  EXPECT_EQ(enf.blocks().peek(late, sec(3600)), VerdictAction::kDrop);
  EXPECT_EQ(enf.blocks().size(), 1u);
  EXPECT_EQ(enf.blocks().expired_total(), 4u);
  EXPECT_EQ(enf.blocks().rejected_total(), 0u);
  // A table full of live entries still rejects, and counts it.
  for (uint32_t i = 2; i <= 4; ++i) {
    enf.apply(Enforcement{source_key(pkt::Ipv4Address(10, 0, 1, i)), VerdictAction::kDrop,
                          sec(3600)});
  }
  enf.apply(Enforcement{source_key(pkt::Ipv4Address(10, 0, 1, 5)), VerdictAction::kDrop,
                        sec(3601)});
  EXPECT_EQ(enf.blocks().size(), 4u);
  EXPECT_EQ(enf.blocks().rejected_total(), 1u);
}

// --- the enforcer ----------------------------------------------------------

Verdict make_verdict(VerdictAction action, std::string session, std::string aor,
                     pkt::Endpoint endpoint, SimTime time) {
  Verdict v;
  v.rule = "test-rule";
  v.action = action;
  v.session = std::move(session);
  v.aor = std::move(aor);
  v.endpoint = endpoint;
  v.time = time;
  return v;
}

TEST(Enforcer, DropBlocksTheSourceQuarantineTheSession) {
  EnforceConfig config;
  config.mode = EnforcementMode::kInline;
  Enforcer enf(config);
  const pkt::Endpoint attacker{pkt::Ipv4Address(10, 0, 0, 66), 5060};
  enf.apply(make_verdict(VerdictAction::kDrop, "call-1", "", attacker, sec(1)));
  enf.apply(make_verdict(VerdictAction::kQuarantine, "call-2", "", attacker, sec(1)));

  const uint64_t src = source_key(attacker.addr);
  // Drop hit the source: any session from that source now decides kDrop.
  EXPECT_EQ(enf.decide(src, session_key("call-9"), 0, sec(2)), VerdictAction::kDrop);
  // Quarantine hit the session, visible even from another source.
  EXPECT_EQ(enf.decide(0, session_key("call-2"), 0, sec(2)), VerdictAction::kQuarantine);
  // Unrelated identities pass.
  EXPECT_EQ(enf.decide(0, session_key("call-3"), 0, sec(2)), VerdictAction::kPass);
}

TEST(Enforcer, RateLimitArmsThePrincipalAndPeekNeverCharges) {
  EnforceConfig config;
  config.mode = EnforcementMode::kInline;
  config.limiter.burst = 2.0;
  config.limiter.rate_per_sec = 0.0;
  Enforcer enf(config);
  const pkt::Endpoint bot{pkt::Ipv4Address(10, 0, 0, 66), 5060};
  enf.apply(make_verdict(VerdictAction::kRateLimit, "call-1", "spambot@lab.net", bot,
                         sec(1)));

  const uint64_t principal = aor_key("spambot@lab.net");
  // peek() any number of times: pure, so the burst is never consumed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(enf.peek(0, 0, principal, sec(2)), VerdictAction::kPass);
  }
  // decide() charges: two burst tokens, then shaped.
  EXPECT_EQ(enf.decide(0, 0, principal, sec(2)), VerdictAction::kPass);
  EXPECT_EQ(enf.decide(0, 0, principal, sec(2)), VerdictAction::kPass);
  EXPECT_EQ(enf.decide(0, 0, principal, sec(2)), VerdictAction::kRateLimit);
  // peek agrees with the now-empty bucket, still without charging.
  EXPECT_EQ(enf.peek(0, 0, principal, sec(2)), VerdictAction::kRateLimit);
  EXPECT_EQ(enf.limiter().denied_total(), 1u);
}

TEST(Enforcer, PassVerdictsAndIdentitylessVerdictsAreNoOps) {
  Enforcer enf(EnforceConfig{});
  enf.apply(make_verdict(VerdictAction::kPass, "call-1", "a@b", {}, sec(1)));
  enf.apply(make_verdict(VerdictAction::kDrop, "", "", {}, sec(1)));  // nothing to key on
  EXPECT_EQ(enf.blocks().size(), 0u);
  EXPECT_EQ(enf.limiter().size(), 0u);
}

TEST(Enforcer, OutboxRecordsRuleVerdictsAndForwardedOnesMerge) {
  // A rule's verdict lands in the outbox; an enforcement applied from
  // elsewhere does not, and it merges into the block list: the action never
  // downgrades and the expiry never shortens.
  EnforceConfig config;
  config.mode = EnforcementMode::kInline;
  config.block_ttl = sec(60);
  std::vector<Enforcement> outbox;
  Enforcer enf(config);
  enf.set_outbox(&outbox);
  const pkt::Endpoint bot{pkt::Ipv4Address(10, 0, 0, 66), 5060};
  enf.apply(make_verdict(VerdictAction::kQuarantine, "", "", bot, sec(1)));
  ASSERT_EQ(outbox.size(), 1u);
  const uint64_t src = source_key(bot.addr);
  EXPECT_EQ(outbox[0].key, src);
  EXPECT_EQ(outbox[0].action, VerdictAction::kQuarantine);
  EXPECT_EQ(outbox[0].time, sec(1));

  enf.apply(Enforcement{src, VerdictAction::kDrop, sec(0)});          // upgrade, earlier
  enf.apply(Enforcement{src, VerdictAction::kRateLimit, sec(100)});  // arms a bucket
  enf.apply(Enforcement{src, VerdictAction::kQuarantine, sec(50)});   // later expiry
  EXPECT_EQ(outbox.size(), 1u);
  EXPECT_EQ(enf.blocks().size(), 1u);
  EXPECT_EQ(enf.blocks().peek(src, sec(100)), VerdictAction::kDrop);
  EXPECT_EQ(enf.blocks().peek(src, sec(110)), VerdictAction::kPass);
  EXPECT_TRUE(enf.limiter().armed(src));
}

}  // namespace
}  // namespace scidive::core
