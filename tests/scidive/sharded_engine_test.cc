// ShardedEngine correctness: the sharded front-end must raise exactly the
// alerts a single-threaded ScidiveEngine raises on the same capture — the
// session-affinity router is only allowed to change *where* state lives,
// never *what* is detected. Each parity case replays a recorded attack
// scenario into both engines and compares alert multisets.
#include "scidive/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scidive/scidive_test_util.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using testing::ep;
using testing::sip_packet;
using voip::testing::VoipFixture;

/// Runs a scenario while recording every packet crossing the hub; the
/// capture is then replayed into engines under test.
struct CaptureFixture : VoipFixture {
  std::vector<pkt::Packet> capture;

  explicit CaptureFixture(bool require_auth = false) : VoipFixture(require_auth) {
    net.add_tap([this](const pkt::Packet& packet) { capture.push_back(packet); });
  }
};

EngineConfig home_config(pkt::Ipv4Address home) {
  EngineConfig config;
  config.home_addresses = {home};
  return config;
}

/// (rule, session) multiset — the alert identity that must survive sharding.
std::multiset<std::pair<std::string, std::string>> alert_multiset(
    const std::vector<Alert>& alerts) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const Alert& a : alerts) out.emplace(a.rule, a.session);
  return out;
}

/// Replay a capture into a single engine and a sharded engine with the same
/// scope; expect identical alerts and exact packet accounting.
void expect_parity(const std::vector<pkt::Packet>& capture, const EngineConfig& config,
                   size_t num_shards, std::string_view must_fire_rule) {
  ScidiveEngine single(config);
  for (const pkt::Packet& packet : capture) single.on_packet(packet);

  ShardedEngineConfig sc;
  sc.engine = config;
  sc.num_shards = num_shards;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : capture) sharded.on_packet(packet);
  sharded.flush();

  EXPECT_GE(single.alerts().count_for_rule(must_fire_rule), 1u)
      << "scenario did not exercise " << must_fire_rule;
  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));

  // Nothing may be silently lost: everything seen is either filtered,
  // dropped (counted), or reached a shard engine.
  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_seen, capture.size());
  EXPECT_EQ(stats.packets_dropped, 0u);  // kBlock never drops
  EXPECT_EQ(stats.packets_seen,
            stats.packets_filtered + stats.packets_dropped + stats.engine.packets_seen);
}

TEST(ShardedEngine, ByeAttackParity) {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  expect_parity(f.capture, home_config(f.a_host.address()), 3, "bye-attack");
}

TEST(ShardedEngine, FakeImParity) {
  CaptureFixture f;
  f.register_both();
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "hi, this is really bob");
  f.sim.run_until(f.sim.now() + sec(1));
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "wire money please");
  f.sim.run_until(f.sim.now() + sec(1));

  // fake-im is the stress case for sharding: the legitimate MESSAGE and the
  // forged one have different Call-IDs and the rule correlates them — the
  // principal-affinity route must land both on one shard.
  expect_parity(f.capture, home_config(f.a_host.address()), 3, "fake-im");
}

TEST(ShardedEngine, CallHijackParity) {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::CallHijacker hijacker(f.attacker_host);
  hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 17000},
                  /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  expect_parity(f.capture, home_config(f.a_host.address()), 3, "call-hijack");
}

TEST(ShardedEngine, BatchedDrainParityAcrossWorkerAndBatchSizes) {
  // Re-pin sharded-vs-single parity across worker counts. Each wakeup
  // drains a batch of whatever one ring lap holds, so batch sizes vary
  // with occupancy: the in-place drain must not reorder packets within a
  // shard or lose counted work at any of them.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  const EngineConfig config = home_config(f.a_host.address());

  ScidiveEngine single(config);
  for (const pkt::Packet& packet : f.capture) single.on_packet(packet);
  const auto expected = alert_multiset(single.alerts().alerts());
  ASSERT_GE(single.alerts().count_for_rule("bye-attack"), 1u);

  for (size_t workers : {1, 2, 4, 8}) {
    ShardedEngineConfig sc;
    sc.engine = config;
    sc.num_shards = workers;
    ShardedEngine sharded(sc);
    for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
    sharded.flush();
    EXPECT_EQ(alert_multiset(sharded.merged_alerts()), expected) << workers << " workers";
    ShardedEngineStats stats = sharded.stats();
    EXPECT_EQ(stats.packets_seen, f.capture.size());
    EXPECT_EQ(stats.packets_dropped, 0u);
  }
}

TEST(ShardedEngine, RtpInjectionParity) {
  CaptureFixture f;
  f.establish_call(sec(3));
  voip::RtpInjector injector(f.attacker_host, /*seed=*/77);
  injector.start({f.a_host.address(), f.a.config().rtp_port}, {.count = 20});
  f.sim.run_until(f.sim.now() + sec(1));

  // RTP injection correlates signaling (SDP-learned endpoints) with media:
  // parity holds only if the router sends a session's media to the same
  // shard as its SIP dialog.
  expect_parity(f.capture, home_config(f.a_host.address()), 3, "rtp-attack");
}

TEST(ShardedEngine, BenignCallRaisesNothing) {
  CaptureFixture f;
  std::string call_id = f.establish_call(sec(3));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.stop();
  EXPECT_EQ(sharded.alert_count(), 0u);
}

TEST(ShardedEngine, DeterministicAcrossRuns) {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  auto run_once = [&] {
    ShardedEngineConfig sc;
    sc.engine = home_config(f.a_host.address());
    sc.num_shards = 4;
    ShardedEngine sharded(sc);
    for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
    sharded.flush();
    std::vector<std::string> out;
    for (const Alert& a : sharded.merged_alerts()) out.push_back(a.to_string());
    return out;
  };
  // Thread interleavings change; the merged alert view must not.
  auto first = run_once();
  EXPECT_FALSE(first.empty());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

TEST(ShardedEngine, SingleShardMatchesPlainEngine) {
  CaptureFixture f;
  std::string call_id = f.establish_call(sec(2));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));

  ScidiveEngine single(home_config(f.a_host.address()));
  for (const pkt::Packet& packet : f.capture) single.on_packet(packet);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 1;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.flush();

  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.engine.packets_inspected, single.stats().packets_inspected);
  EXPECT_EQ(stats.engine.events, single.stats().events);
  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));
}

TEST(ShardedEngine, DropPolicyCountsEveryLoss) {
  CaptureFixture f;
  f.establish_call(sec(3));

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 2;
  sc.queue_capacity = 8;  // deliberately tiny: force overflow
  sc.overflow = OverflowPolicy::kDrop;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.flush();

  // Accounting identity still holds with drops in play.
  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_seen, f.capture.size());
  EXPECT_EQ(stats.packets_seen,
            stats.packets_filtered + stats.packets_dropped + stats.engine.packets_seen);
}

TEST(ShardedEngine, SoakManySessionsAcrossShards) {
  // A larger run: several calls plus attacks, replayed through 4 shards
  // with small rings so workers, backpressure and the drain protocol all
  // get exercised. Run under TSan in CI.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.register_both();
  for (int round = 0; round < 6; ++round) {
    std::string call_id = f.a.call("bob");
    f.sim.run_until(f.sim.now() + sec(2));
    if (round % 2 == 0) {
      voip::RtpInjector injector(f.attacker_host, /*seed=*/round + 1);
      injector.start({f.a_host.address(), f.a.config().rtp_port}, {.count = 10});
      f.sim.run_until(f.sim.now() + sec(1));
    }
    f.a.hangup(call_id);
    f.sim.run_until(f.sim.now() + sec(1));
  }
  ASSERT_GT(f.capture.size(), 1000u);

  ScidiveEngine single(home_config(f.a_host.address()));
  for (const pkt::Packet& packet : f.capture) single.on_packet(packet);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  sc.queue_capacity = 64;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.stop();

  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));
  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.engine.packets_seen, single.stats().packets_inspected);
}

TEST(ShardedEngine, RouterSpreadsSessionsAcrossShards) {
  // Distinct Call-IDs should not all collapse onto one shard.
  CaptureFixture f;
  f.register_both();
  for (int i = 0; i < 8; ++i) {
    std::string call_id = f.a.call("bob");
    f.sim.run_until(f.sim.now() + msec(500));
    f.a.hangup(call_id);
    f.sim.run_until(f.sim.now() + msec(500));
  }

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.flush();

  size_t shards_used = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    if (sharded.shard(i).stats().packets_seen > 0) ++shards_used;
  }
  EXPECT_GE(shards_used, 2u);
  const ShardRouterStats& rs = sharded.router().stats();
  EXPECT_GT(rs.by_call_id, 0u);
  EXPECT_GT(rs.media_bindings_learned, 0u);
}

TEST(ShardedEngine, ExpireIdleDropsThePinsOfRetiredSessions) {
  // Every REGISTER Call-ID and by-caller INVITE Call-ID is pinned to the
  // shard holding its session; the pin goes when that session's record does.
  CaptureFixture f;
  f.register_both();
  const std::string call_id = f.a.call("bob");
  f.sim.run_until(f.sim.now() + sec(1));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  sc.route_invite_by_caller = true;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.flush();
  const size_t pins = sharded.router().override_count();
  ASSERT_GT(pins, 0u);

  sharded.expire_idle(0);  // nothing is idle before the capture began
  EXPECT_EQ(sharded.router().override_count(), pins);
  sharded.expire_idle(f.sim.now() + sec(100));
  EXPECT_EQ(sharded.router().override_count(), 0u);
}

/// Convicts on sight: a MESSAGE drops its source, an INVITE rate-limits
/// its caller.
class ConvictRule : public Rule {
 public:
  std::string_view name() const override { return "convict"; }
  EventTypeMask subscriptions() const override {
    return event_mask(EventType::kImMessageSeen) | event_mask(EventType::kSipInviteSeen);
  }
  void on_event(const Event& event, RuleContext& ctx) const override {
    const bool im = event.type == EventType::kImMessageSeen;
    ctx.verdict("convict", im ? VerdictAction::kDrop : VerdictAction::kRateLimit, event,
                "convicted");
  }
};

ShardedEngineConfig convicting_config(size_t num_shards) {
  ShardedEngineConfig sc;
  sc.num_shards = num_shards;
  sc.engine.obs.time_stages = false;
  sc.engine.enforce.mode = EnforcementMode::kInline;
  return sc;
}

RulesetPtr convict_rules() { return make_ruleset({std::make_shared<ConvictRule>()}); }

pkt::Packet im_from(pkt::Endpoint src, std::string_view call_id, SimTime time) {
  return sip_packet("MESSAGE sip:service@lab.net SIP/2.0", "bot@lab.net", call_id, "MESSAGE",
                    time, src, ep(1, 5060));
}

TEST(ShardedEngine, VerdictOnOneShardBindsEveryShard) {
  ShardedEngine sharded(convicting_config(4));
  sharded.set_rules(convict_rules());
  const pkt::Endpoint bot = ep(66, 5060);
  sharded.on_packet_to_shard(0, im_from(bot, "im-1", sec(1)));
  sharded.on_packet_to_shard(1, sip_packet("INVITE sip:service@lab.net SIP/2.0",
                                           "spam@lab.net", "call-1", "INVITE", sec(1),
                                           ep(77, 5060), ep(1, 5060)));
  sharded.flush();

  // Raised once, by the shard that computed it; enforced everywhere.
  EXPECT_EQ(sharded.merged_verdicts().size(), 2u);
  const uint64_t src = source_key(bot.addr);
  const uint64_t principal = aor_key("spam@lab.net");
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const Enforcer* enforcer = sharded.shard(i).enforcer();
    ASSERT_NE(enforcer, nullptr);
    EXPECT_EQ(enforcer->blocks().peek(src, sec(2)), VerdictAction::kDrop) << "shard " << i;
    EXPECT_EQ(enforcer->blocks().size(), 1u) << "shard " << i;
    EXPECT_TRUE(enforcer->limiter().armed(principal)) << "shard " << i;
    EXPECT_EQ(enforcer->limiter().size(), 1u) << "shard " << i;
  }

  // The blocked source's next packet lands on another shard and is dropped.
  sharded.on_packet_to_shard(2, sip_packet("OPTIONS sip:service@lab.net SIP/2.0",
                                           "bot@lab.net", "opt-1", "OPTIONS", sec(2), bot,
                                           ep(1, 5060)));
  sharded.flush();
  EXPECT_EQ(sharded.shard(2).decisions(VerdictAction::kDrop), 1u);
  EXPECT_EQ(sharded.merged_verdicts().size(), 2u);
}

TEST(ShardedEngine, ForwardedVerdictsRespectEachShardsCap) {
  ShardedEngineConfig sc = convicting_config(2);
  sc.engine.enforce.max_blocked = 4;
  ShardedEngine sharded(sc);
  sharded.set_rules(convict_rules());
  constexpr int kSources = 10;
  for (int i = 0; i < kSources; ++i) {
    sharded.on_packet_to_shard(0, im_from(ep(static_cast<uint8_t>(100 + i), 5060),
                                          "im-" + std::to_string(i), sec(1)));
  }
  sharded.flush();

  EXPECT_EQ(sharded.merged_verdicts().size(), static_cast<size_t>(kSources));
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const BlockList& blocks = sharded.shard(i).enforcer()->blocks();
    EXPECT_EQ(blocks.size(), sc.engine.enforce.max_blocked) << "shard " << i;
    EXPECT_EQ(blocks.rejected_total(), kSources - sc.engine.enforce.max_blocked)
        << "shard " << i;
  }
}

}  // namespace
}  // namespace scidive::core
