// Skew-aware rebalancing: rebalance() may move whole sessions between
// shards at a quiesce point, but it must never change *what* is detected —
// the alert multiset, the continued detection of an in-progress attack and
// the differential oracle all have to hold across migrations.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/differential.h"
#include "scidive/sharded_engine.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using voip::testing::VoipFixture;

struct CaptureFixture : VoipFixture {
  std::vector<pkt::Packet> capture;

  CaptureFixture() {
    net.add_tap([this](const pkt::Packet& packet) { capture.push_back(packet); });
  }
};

EngineConfig home_config(pkt::Ipv4Address home) {
  EngineConfig config;
  config.home_addresses = {home};
  return config;
}

std::multiset<std::pair<std::string, std::string>> alert_multiset(
    const std::vector<Alert>& alerts) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const Alert& a : alerts) out.emplace(a.rule, a.session);
  return out;
}

TEST(Rebalance, MigratedSessionKeepsDetectingMidAttack) {
  // Establish a call, migrate its session to another shard, THEN run the
  // BYE attack: detection depends on dialog + media state built before the
  // migration, so an alert proves the state moved intact.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_GT(f.capture.size(), pre_attack);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (size_t i = 0; i < pre_attack; ++i) sharded.on_packet(f.capture[i]);
  // One active session: its shard is the hottest by definition, so the
  // default trigger fires and the (sole, non-synthetic) session moves.
  EXPECT_GE(sharded.rebalance(), 1u);
  EXPECT_GE(sharded.sessions_migrated(), 1u);
  EXPECT_GE(sharded.directory().override_count(), 1u);
  for (size_t i = pre_attack; i < f.capture.size(); ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();

  size_t with_rule = 0;
  for (const Alert& a : sharded.merged_alerts()) {
    if (a.rule == "bye-attack") ++with_rule;
  }
  EXPECT_GE(with_rule, 1u);

  // The migrated session lives on exactly one shard.
  const std::vector<Alert> merged = sharded.merged_alerts();
  ASSERT_FALSE(merged.empty());
  size_t holders = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    if (sharded.shard(i).has_session(merged.front().session)) ++holders;
  }
  EXPECT_EQ(holders, 1u);

  // The quiesce-side counters surface through the merged snapshot.
  obs::Snapshot snap = sharded.metrics_snapshot();
  EXPECT_GE(snap.counter_value("scidive_rebalance_sessions_migrated_total", {}), 1u);
  EXPECT_GE(snap.counter_value("scidive_rebalance_rounds_total", {}), 1u);
}

TEST(Rebalance, MidStreamRebalancePreservesAlertParity) {
  // Many sessions + attacks; rebalance repeatedly mid-replay and expect the
  // same alert multiset a single-threaded engine produces.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.register_both();
  for (int round = 0; round < 6; ++round) {
    std::string call_id = f.a.call("bob");
    f.sim.run_until(f.sim.now() + sec(2));
    if (round % 2 == 0) {
      voip::ByeAttacker attacker(f.attacker_host);
      attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
      f.sim.run_until(f.sim.now() + sec(1));
    } else {
      f.a.hangup(call_id);
    }
    f.sim.run_until(f.sim.now() + sec(1));
  }
  const EngineConfig config = home_config(f.a_host.address());

  ScidiveEngine single(config);
  for (const pkt::Packet& packet : f.capture) single.on_packet(packet);
  ASSERT_GE(single.alerts().count_for_rule("bye-attack"), 1u);

  ShardedEngineConfig sc;
  sc.engine = config;
  sc.num_shards = 4;
  sc.rebalance_hot_ratio = 1.0;  // aggressive: any skew triggers migration
  ShardedEngine sharded(sc);
  size_t since = 0;
  for (const pkt::Packet& packet : f.capture) {
    sharded.on_packet(packet);
    if (++since >= 200) {
      since = 0;
      sharded.rebalance();
    }
  }
  sharded.flush();

  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));
  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_seen, f.capture.size());
  EXPECT_EQ(stats.packets_dropped, 0u);
}

TEST(Rebalance, BalancedLoadMigratesNothing) {
  CaptureFixture f;
  std::string call_id = f.establish_call(sec(2));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  sc.rebalance_hot_ratio = 1e9;  // trigger can never fire
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  EXPECT_EQ(sharded.rebalance(), 0u);
  EXPECT_EQ(sharded.sessions_migrated(), 0u);
  EXPECT_EQ(sharded.directory().override_count(), 0u);
}

TEST(Rebalance, SingleShardIsANoOp) {
  ShardedEngineConfig sc;
  sc.num_shards = 1;
  ShardedEngine sharded(sc);
  EXPECT_EQ(sharded.rebalance(), 0u);
}

TEST(Rebalance, DifferentialOracleHoldsUnderPeriodicRebalance) {
  // The designed instrument for migration correctness: the single-vs-sharded
  // oracle with rebalance() forced every N packets at every shard count.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.register_both();
  for (int round = 0; round < 4; ++round) {
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

  fuzz::DifferentialConfig dc;
  dc.engine = home_config(f.a_host.address());
  for (fuzz::Topology& t : dc.topologies) {
    if (auto* sharded = std::get_if<fuzz::Sharded>(&t)) sharded->rebalance_every = 100;
  }
  fuzz::DifferentialReport report = fuzz::run_differential(f.capture, dc);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.baseline_alerts, 0u);
}

TEST(Rebalance, MigrationFlushesFastpathCacheAndKeepsDetecting) {
  // The migrated call's media flow was being bypassed by the established-
  // flow fast path; extract/install on migration drops the flow records
  // and moves the session state they pointed at, so the destination shard
  // still detects the BYE attack that depends on pre-migration dialog +
  // media state.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_GT(f.capture.size(), pre_attack);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (size_t i = 0; i < pre_attack; ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();
  uint64_t bypassed = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    bypassed += sharded.shard(i).fastpath_bypassed();
  }
  ASSERT_GT(bypassed, 0u) << "the call's steady media must have engaged the fast path";

  ASSERT_GE(sharded.rebalance(), 1u);
  ASSERT_GE(sharded.sessions_migrated(), 1u);
  for (size_t i = pre_attack; i < f.capture.size(); ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();

  size_t with_rule = 0;
  for (const Alert& a : sharded.merged_alerts()) {
    if (a.rule == "bye-attack") ++with_rule;
  }
  EXPECT_GE(with_rule, 1u) << "migration of a bypassed flow must not lose the attack";
  uint64_t bypassed_after = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    bypassed_after += sharded.shard(i).fastpath_bypassed();
  }
  EXPECT_GT(bypassed_after, bypassed) << "migrated flows re-attach and bypass again";
}

TEST(Rebalance, ExtractInstallHandoffWritesBackExactMicrostate) {
  // The fleet session-handoff primitive at engine level: extract a session
  // whose media flow is mid-bypass, install it on a second engine, and the
  // continued replay must produce alerts byte-identical to an undisturbed
  // single engine — proving the migrated sequence/jitter state the bypass
  // stepped in place is exact, not merely close.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  const EngineConfig config = home_config(f.a_host.address());
  ScidiveEngine reference(config);
  for (const pkt::Packet& packet : f.capture) reference.on_packet(packet);
  ASSERT_GE(reference.alerts().count_for_rule("bye-attack"), 1u);
  std::string session;
  for (const Alert& a : reference.alerts().alerts()) {
    if (a.rule == "bye-attack") session = a.session;
  }
  ASSERT_FALSE(session.empty());

  ScidiveEngine source(config);
  for (size_t i = 0; i < pre_attack; ++i) source.on_packet(f.capture[i]);
  ASSERT_GT(source.fastpath_bypassed(), 0u);
  ASSERT_TRUE(source.has_session(session));
  ScidiveEngine::SessionTransfer transfer = source.extract_session(session);
  ASSERT_TRUE(transfer.record.valid());
  EXPECT_EQ(source.fastpath_entries(), 0u) << "handoff must flush the flow cache";

  ScidiveEngine target(config);
  target.install_session(std::move(transfer));
  for (size_t i = pre_attack; i < f.capture.size(); ++i) target.on_packet(f.capture[i]);

  std::vector<std::string> got, want;
  for (const Alert& a : source.alerts().alerts()) got.push_back(a.to_string());
  for (const Alert& a : target.alerts().alerts()) got.push_back(a.to_string());
  for (const Alert& a : reference.alerts().alerts()) want.push_back(a.to_string());
  EXPECT_EQ(got, want);
  EXPECT_GE(target.alerts().count_for_rule("bye-attack"), 1u);
}

}  // namespace
}  // namespace scidive::core
