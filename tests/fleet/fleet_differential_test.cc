// The topology oracle over fleets: a cooperating N-node cluster must report
// exactly what the fast-path-off single engine reports — identical alert
// multisets, identical verdict multisets, identical detection-side metric
// families and the same filtered count — for the same packet stream, across
// node counts, per-node worker counts, both INVITE routings, and mid-replay
// membership churn. Losing gossip may cost alerts, but only against counted
// drops (fail-visible, never fail-silent).
#include "fuzz/differential.h"

#include <gtest/gtest.h>

#include "capture/test_streams.h"
#include "pkt/packet.h"
#include "scidive/rules.h"
#include "testbed/testbed.h"

namespace scidive::fuzz {
namespace {

using testbed::four_attacks_stream;
using capture::testing::spit_mix_stream;
using capture::testing::testbed_home;

/// A fleet pumping gossip every 512 packets, so each stream here crosses
/// several gossip rounds between its traffic and its join/leave handoffs.
FleetRun fleet(size_t nodes, size_t workers_per_node) {
  FleetRun t = fleet_of(nodes, workers_per_node);
  t.config.pump_every_packets = 512;
  return t;
}

/// Fleets of 2 and 4 nodes at 1 and 4 workers each.
std::vector<Topology> fleets() {
  std::vector<Topology> out;
  for (size_t workers : {1, 4}) {
    for (size_t nodes : {2, 4}) out.emplace_back(fleet(nodes, workers));
  }
  return out;
}

TEST(FleetDifferential, AlertParityAcrossNodeAndWorkerCounts) {
  const std::vector<pkt::Packet> stream = four_attacks_stream();
  ASSERT_GT(stream.size(), 500u);

  DifferentialConfig config;
  config.engine.home_addresses = testbed_home();
  config.topologies = fleets();
  // A forged in-dialog re-INVITE (the call hijack) must follow its dialog's
  // pin under by-caller routing, at every fleet shape.
  for (size_t workers : {1, 4}) {
    for (size_t nodes : {1, 2, 4}) {
      config.topologies.emplace_back(by_caller(fleet(nodes, workers)));
    }
  }

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Vacuity guard: the baseline really detected the injected attacks.
  EXPECT_GE(report.baseline_alerts, 4u);
}

TEST(FleetDifferential, ParitySurvivesMidReplayJoinAndLeave) {
  const std::vector<pkt::Packet> stream = four_attacks_stream();

  DifferentialConfig config;
  config.engine.home_addresses = testbed_home();
  config.topologies = fleets();
  for (Topology& t : config.topologies) {
    std::get<FleetRun>(t).join_at = stream.size() / 3;
    std::get<FleetRun>(t).leave_at = (2 * stream.size()) / 3;
  }

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_alerts, 4u);
  // Churn without movement would be vacuous: slots really changed hands.
  EXPECT_GE(report.sessions_handed_off, 1u);
}

TEST(FleetDifferential, VerdictParityOnSpitCapture) {
  const std::vector<pkt::Packet> stream = spit_mix_stream(0x5cf1);
  ASSERT_GT(stream.size(), 1000u);

  DifferentialConfig config;
  config.engine.enforce.mode = core::EnforcementMode::kPassive;
  config.make_rules = [] {
    core::RulesConfig rc;
    rc.spit_graylist = true;
    return core::make_default_ruleset(rc);
  };
  // Per-caller graylist state needs every INVITE of a caller on one node
  // and one worker.
  config.topologies = fleets();
  for (Topology& t : config.topologies) t = by_caller(std::get<FleetRun>(t));

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_verdicts, 2u) << "both spammers should be graylisted";
}

TEST(FleetDifferential, SpitGraylistStateFollowsCallerAcrossChurn) {
  // A spammer's attempt count is principal state: when a join or a leave
  // moves the caller's slot, the count must move with it, or the new owner
  // starts from zero and graylists the caller a second time.
  const std::vector<pkt::Packet> stream = spit_mix_stream(0x5b18);
  ASSERT_GT(stream.size(), 1000u);

  DifferentialConfig config;
  config.engine.enforce.mode = core::EnforcementMode::kPassive;
  config.engine.rules.spit_graylist = true;
  config.topologies.clear();
  for (size_t workers : {1, 2, 4}) {
    FleetRun t = by_caller(fleet_of(2, workers));
    t.join_at = stream.size() / 3;
    t.leave_at = (2 * stream.size()) / 3;
    config.topologies.push_back(t);
  }

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_verdicts, 2u) << "both spammers should be graylisted";
  EXPECT_GT(report.sessions_handed_off, 0u) << "churn must move sessions";
  EXPECT_GT(report.principals_handed_off, 0u) << "churn must move principals";
}

/// `stream` with UDP port `from` renumbered `to` (those datagrams are
/// rebuilt, so checksums stay valid). Everything else, fragments included,
/// passes through unchanged.
std::vector<pkt::Packet> renumber_port(const std::vector<pkt::Packet>& stream, uint16_t from,
                                       uint16_t to) {
  std::vector<pkt::Packet> out;
  for (const pkt::Packet& packet : stream) {
    auto udp = pkt::parse_udp_packet(packet.data);
    if (!udp.ok() || (udp.value().src_port != from && udp.value().dst_port != from)) {
      out.push_back(packet);
      continue;
    }
    const pkt::UdpPacketView& v = udp.value();
    pkt::Endpoint src = v.source();
    pkt::Endpoint dst = v.destination();
    if (src.port == from) src.port = to;
    if (dst.port == from) dst.port = to;
    pkt::Packet moved = pkt::make_udp_packet(src, dst, v.payload, v.ip.identification, v.ip.ttl);
    moved.timestamp = packet.timestamp;
    out.push_back(std::move(moved));
  }
  return out;
}

TEST(FleetDifferential, SipOnNonDefaultPortMatchesSingleEngine) {
  // The engines are told SIP runs on 5090. The fleet's dispatcher must route
  // by the same port conventions, or it hashes that SIP as an unsignaled
  // flow, learns no media binding and splits each call from its media.
  const std::vector<pkt::Packet> stream = renumber_port(four_attacks_stream(), 5060, 5090);

  DifferentialConfig config;
  config.engine.home_addresses = testbed_home();
  config.engine.distiller.sip_ports = {5090};
  config.topologies = fleets();

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // Vacuity guard: the engines really read 5090 as SIP.
  EXPECT_GE(report.baseline_alerts, 4u);
}

TEST(FleetDifferential, GossipLossIsCountedNeverSilent) {
  // With a lossy control channel a run whose counters show loss is held
  // only to its accounting — but a run that diverges without counted loss
  // is a reported bug, never a hidden one.
  const std::vector<pkt::Packet> stream = four_attacks_stream();

  DifferentialConfig config;
  config.engine.home_addresses = testbed_home();
  config.topologies.clear();
  for (size_t workers : {1, 4}) {
    FleetRun t = fleet(4, workers);
    t.config.gossip_loss = 0.5;
    t.config.loss_seed = 7;
    config.topologies.push_back(t);
  }

  const DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace scidive::fuzz
