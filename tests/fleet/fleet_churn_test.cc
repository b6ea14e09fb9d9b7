// Membership churn under fire: nodes joining mid-attack take over their
// slots' sessions (the session record moves, the announcement gossips),
// graceful leaves hand everything back, and crashes lose state without
// turning peer silence into false alarms (fail-open).
#include <gtest/gtest.h>

#include "capture/test_streams.h"
#include "fleet/fleet.h"
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

}  // namespace
}  // namespace scidive::fleet
