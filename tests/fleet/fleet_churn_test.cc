// Membership churn under fire: nodes joining mid-attack take over their
// slots' sessions (the session record moves, the announcement gossips),
// graceful leaves hand everything back, and crashes lose state without
// turning peer silence into false alarms (fail-open).
#include <gtest/gtest.h>

#include "capture/test_streams.h"
#include "fleet/fleet.h"
#include "ruledsl/loader.h"
#include "scidive/rules.h"
#include "scidive/scidive_test_util.h"
#include "testbed/testbed.h"

namespace scidive::fleet {
namespace {

using testbed::four_attacks_stream;
using capture::testing::testbed_home;

FleetConfig churn_config() {
  FleetConfig fc;
  fc.home_addresses = testbed_home();
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 256;
  return fc;
}

size_t rule_count(const std::vector<core::Alert>& alerts, std::string_view rule) {
  size_t n = 0;
  for (const core::Alert& alert : alerts) {
    if (alert.rule == rule) ++n;
  }
  return n;
}

void replay(Fleet& fleet, const std::vector<pkt::Packet>& stream, size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < stream.size(); ++i) fleet.on_packet(stream[i]);
}

TEST(FleetChurn, JoinMidAttackPreservesDetection) {
  const std::vector<pkt::Packet> stream = four_attacks_stream();
  ASSERT_GT(stream.size(), 500u);

  Fleet fleet(churn_config(), {"node-0", "node-1"});
  replay(fleet, stream, 0, stream.size() / 2);
  ASSERT_TRUE(fleet.add_node("joiner"));
  replay(fleet, stream, stream.size() / 2, stream.size());
  fleet.flush();

  // The attacks bracketing the join are still all detected — the sessions
  // that moved carried their footprint state with them.
  const std::vector<core::Alert> alerts = fleet.merged_alerts();
  EXPECT_GE(rule_count(alerts, "bye-attack"), 1u);
  EXPECT_GE(rule_count(alerts, "call-hijack"), 1u);
  EXPECT_GE(rule_count(alerts, "fake-im"), 1u);
  EXPECT_GE(rule_count(alerts, "rtp-attack"), 1u);
  EXPECT_EQ(fleet.size(), 3u);
  // The joiner genuinely took over slots (and the transfer was announced).
  EXPECT_FALSE(fleet.ring().slots_of("joiner").empty());
  EXPECT_EQ(fleet.stats().packets_seen, stream.size());
}

TEST(FleetChurn, GracefulLeaveHandsSessionsBack) {
  const std::vector<pkt::Packet> stream = four_attacks_stream();

  Fleet fleet(churn_config(), {"node-0", "node-1", "node-2"});
  replay(fleet, stream, 0, stream.size() / 2);
  ASSERT_TRUE(fleet.remove_node("node-2"));
  replay(fleet, stream, stream.size() / 2, stream.size());
  fleet.flush();

  const std::vector<core::Alert> alerts = fleet.merged_alerts();
  EXPECT_GE(rule_count(alerts, "bye-attack"), 1u);
  EXPECT_GE(rule_count(alerts, "call-hijack"), 1u);
  EXPECT_GE(rule_count(alerts, "rtp-attack"), 1u);
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_TRUE(fleet.ring().slots_of("node-2").empty());
}

TEST(FleetChurn, CrashLosesStateButStaysFailOpen) {
  const std::vector<pkt::Packet> stream = four_attacks_stream();

  Fleet fleet(churn_config(), {"node-0", "node-1"});
  replay(fleet, stream, 0, stream.size() / 2);
  ASSERT_TRUE(fleet.crash_node("node-1"));
  replay(fleet, stream, stream.size() / 2, stream.size());
  fleet.flush();

  // The survivor owns the whole ring and keeps processing; the crashed
  // node's in-flight session state is gone (that is what "crash" means),
  // but silence from the dead peer must not manufacture forgery alerts.
  EXPECT_EQ(fleet.size(), 1u);
  const std::vector<core::Alert> alerts = fleet.merged_alerts();
  EXPECT_EQ(rule_count(alerts, FleetNode::kFleetFakeImRule), 0u);
  EXPECT_EQ(rule_count(alerts, FleetNode::kFleetSpoofedByeRule), 0u);
  EXPECT_EQ(rule_count(alerts, FleetNode::kFleetSpoofedReinviteRule), 0u);
  EXPECT_EQ(fleet.stats().packets_seen, stream.size());
  // The survivor kept inspecting after the crash.
  EXPECT_GT(fleet.node_at(0).engine().stats().packets_seen, 0u);
}

TEST(FleetChurn, EngineShardsAndNodesShareOneDefaultRuleset) {
  core::RulesConfig rules;
  rules.spit_graylist = true;
  rules.spit_call_threshold = 11;
  core::EngineConfig ec;
  ec.rules = rules;
  const core::ScidiveEngine single(ec);
  const core::RulesetPtr shared = single.ruleset();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared, core::default_ruleset(rules));

  core::ShardedEngineConfig sc;
  sc.engine = ec;
  sc.num_shards = 2;
  core::ShardedEngine sharded(sc);
  FleetConfig fc;
  fc.node.engine = sc;
  Fleet fleet(fc, {"node-0", "node-1"});
  ASSERT_TRUE(fleet.add_node("joiner"));
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    EXPECT_EQ(sharded.shard(i).ruleset(), shared) << "shard " << i;
  }
  ASSERT_EQ(fleet.size(), 3u);
  for (size_t n = 0; n < fleet.size(); ++n) {
    core::ShardedEngine& node = fleet.node_at(n).engine();
    for (size_t i = 0; i < node.num_shards(); ++i) {
      EXPECT_EQ(node.shard(i).ruleset(), shared) << fleet.node_at(n).name() << " shard " << i;
    }
  }

  core::EngineConfig other = ec;
  other.rules.spit_call_threshold = 12;
  const core::ScidiveEngine differently_configured(other);
  EXPECT_NE(differently_configured.ruleset(), shared);
  EXPECT_EQ(differently_configured.ruleset(), core::default_ruleset(other.rules));
}

TEST(FleetChurn, JoinerRunsTheFleetRulesetBeforeRecordsArrive) {
  // Every INVITE session holds a block of the custom ruleset's one
  // session-keyed rule. A joiner running any other ruleset would drop each
  // block it adopts (its layout differs), so the blocks that arrive whole
  // show the joiner ran the fleet's ruleset before the handoff.
  auto compiled = ruledsl::compile_ruleset_text(R"sdr(
rule invite-count {
  key session;
  state { int invites = 0; }
  on SipInviteSeen { add invites; }
}
)sdr");
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const core::RulesetPtr custom = ruledsl::make_ruleset(compiled.value());
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  Fleet fleet(fc, {"node-0", "node-1"});
  fleet.set_rules(custom);
  for (int i = 0; i < 64; ++i) {
    fleet.on_packet(core::testing::sip_packet(
        "INVITE sip:bob@lab.net SIP/2.0", "alice@lab.net", "call-" + std::to_string(i), "INVITE",
        msec(i), core::testing::ep(1, 5060), core::testing::ep(2, 5060)));
  }
  fleet.flush();
  ASSERT_TRUE(fleet.add_node("joiner"));
  fleet.flush();

  const FleetStats stats = fleet.stats();
  ASSERT_GT(stats.sessions_handed_off, 0u);
  FleetNode* joiner = fleet.node("joiner");
  ASSERT_NE(joiner, nullptr);
  const core::ScidiveEngine& engine = joiner->engine().shard(0);
  EXPECT_EQ(engine.ruleset(), custom);
  EXPECT_EQ(engine.trails().session_count(), stats.sessions_handed_off);
  EXPECT_EQ(engine.trails().rule_state_blocks(), stats.sessions_handed_off)
      << "every moved session kept its rule state";
}

}  // namespace
}  // namespace scidive::fleet
