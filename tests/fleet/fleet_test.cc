// Fleet integration: FleetNodes gossiping SEP-v2 over real simulated UDP
// — the per-client cooperative deployment of §6, one node beside each
// client (vouch-or-flag attribution of IMs, hangups and media moves, the
// spoofed fake IM the single-point rule cannot see, fail-open and
// fail-closed without a peer, strict rejection of garbage and retired SEP1
// lines) — fleet-wide correlation across the slot partition, and
// cross-node verdict screening: a principal graylisted on one node is
// rate-limited on every other.
#include <gtest/gtest.h>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "fleet/fleet.h"
#include "fleet/udp_transport.h"
#include "scidive/enforce.h"
#include "scidive/rules.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::fleet {
namespace {

using voip::testing::VoipFixture;

FleetNodeConfig node_config(const std::string& name) {
  FleetNodeConfig config;
  config.name = name;
  config.engine.num_shards = 1;
  config.engine.engine.obs.time_stages = false;
  return config;
}

size_t rule_count(const FleetNode& node, std::string_view rule) {
  size_t n = 0;
  for (const core::Alert& alert : node.engine().merged_alerts()) {
    if (alert.rule == rule) ++n;
  }
  return n;
}

/// Two-node fleet on the shared VoIP topology: ids-a watches alice's host,
/// ids-b watches bob's, gossip rides UDP datagrams on kFleetPort.
struct FleetNetFixture : VoipFixture {
  netsim::Host ids_a_host{"ids-a", pkt::Ipv4Address(10, 0, 0, 10), net};
  netsim::Host ids_b_host{"ids-b", pkt::Ipv4Address(10, 0, 0, 11), net};
  FleetNode node_a{node_config("ids-a")};
  FleetNode node_b{node_config("ids-b")};
  UdpGossipLink link_a{ids_a_host, node_a};
  UdpGossipLink link_b{ids_b_host, node_b};

  FleetNetFixture() {
    const netsim::LinkConfig link{.delay = DelayModel::fixed(msec(1))};
    net.attach(ids_a_host, link);
    net.attach(ids_b_host, link);
    net.add_tap(node_tap(node_a, a_host.address()));
    net.add_tap(node_tap(node_b, b_host.address()));
    node_a.add_peer("ids-b");
    node_b.add_peer("ids-a");
    node_a.add_peer_user("bob@lab.net");
    node_b.add_peer_user("alice@lab.net");
    node_a.attach_local_agent(a);
    node_b.attach_local_agent(b);
    link_a.add_peer("ids-b", {ids_b_host.address(), kFleetPort});
    link_b.add_peer("ids-a", {ids_a_host.address(), kFleetPort});
    link_a.start();
    link_b.start();
  }

  /// Quiesce both engines so merged_alerts()/stats() are safe to read.
  void settle() {
    node_a.pump(sim.now());
    node_b.pump(sim.now());
  }
};

/// ids-a alone beside alice's host. Its peer ids-b never runs, so no vouch
/// and no heartbeat ever reaches it.
struct LoneNodeFixture : VoipFixture {
  netsim::Host ids_a_host{"ids-a", pkt::Ipv4Address(10, 0, 0, 10), net};
  FleetNode node_a;
  UdpGossipLink link_a{ids_a_host, node_a};

  explicit LoneNodeFixture(FleetNodeConfig config = node_config("ids-a"))
      : node_a(std::move(config)) {
    net.attach(ids_a_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1))});
    net.add_tap(node_tap(node_a, a_host.address()));
    node_a.add_peer("ids-b");
    node_a.add_peer_user("bob@lab.net");
    link_a.add_peer("ids-b", {pkt::Ipv4Address(10, 0, 0, 11), kFleetPort});
    link_a.start();
  }
};

TEST(FleetNet, GenuineImIsVouchedAndSilent) {
  FleetNetFixture f;
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "really me");
  f.sim.run_until(sec(2));
  f.settle();

  // ids-a held the IM claiming bob until bob's own IDS vouched the send.
  EXPECT_TRUE(f.node_a.engine().merged_alerts().empty());
  EXPECT_EQ(f.node_a.stats().claims_held, 1u);
  EXPECT_EQ(f.node_a.stats().claims_confirmed, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_GE(f.node_a.stats().vouches_received, 1u);
}

TEST(FleetNet, SpoofedFakeImEvadesLocalRuleButNotFleet) {
  FleetNetFixture f;
  // History: bob IMs alice legitimately so the IP-consistency rule has his
  // usual source on file.
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "hello");
  f.sim.run_until(sec(2));

  // The stronger attack: source IP spoofed to bob's real endpoint. The
  // single-point fake-im rule sees a consistent source and stays silent —
  // exactly the blind spot §4.2.2 concedes.
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send_spoofed(f.a.sip_endpoint(), "bob@lab.net", f.b.sip_endpoint(),
                        "wire money now");
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_EQ(rule_count(f.node_a, "fake-im"), 0u);  // local rule blind
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetFakeImRule), 1u)
      << "bob's IDS never vouched the send, spoofed source or not";
  EXPECT_EQ(f.node_a.stats().claims_flagged, 1u);
}

TEST(FleetNet, UnspoofedFakeImCaughtByBothLayers) {
  FleetNetFixture f;
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "hello");
  f.sim.run_until(sec(2));
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "clumsy forgery");
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_GE(rule_count(f.node_a, "fake-im"), 1u);
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetFakeImRule), 1u);
}

TEST(FleetNet, OnlyPeerHomedUsersAreVerified) {
  FleetNetFixture f;
  // carol is homed nowhere in the fleet: an IM claiming her is not held.
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "carol@lab.net", "who dis");
  f.sim.run_until(sec(2));
  f.settle();

  EXPECT_EQ(f.node_a.stats().claims_held, 0u);
  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetFakeImRule), 0u);
}

TEST(FleetNet, OrphanEventsAreSharedAcrossNodes) {
  FleetNetFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  f.settle();

  // ids-a saw the orphan flow and gossiped the event; ids-b heard it.
  EXPECT_GE(rule_count(f.node_a, "bye-attack"), 1u);
  bool b_received_orphan = false;
  for (const RemoteRecord& remote : f.node_b.remote_records()) {
    const auto* event = std::get_if<core::Event>(&remote.record);
    if (event != nullptr && event->type == core::EventType::kRtpAfterBye &&
        remote.from == "ids-a")
      b_received_orphan = true;
  }
  EXPECT_TRUE(b_received_orphan);
}

TEST(FleetNet, FailOpenWhenPeerIdsIsDown) {
  // No vouching is possible: a forged IM claiming bob must NOT alarm under
  // the default fail-open policy — a dead peer IDS would otherwise turn
  // every message into an alert.
  LoneNodeFixture f;
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "nobody is watching");
  f.sim.run_until(sec(2));
  f.node_a.pump(f.sim.now());

  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetFakeImRule), 0u);
  EXPECT_EQ(f.node_a.stats().claims_skipped_peer_down, 1u);
}

TEST(FleetNet, FailClosedConfigurationFlagsWithoutPeer) {
  FleetNodeConfig config = node_config("ids-a");
  config.peer_liveness_window = 0;  // always verify
  LoneNodeFixture f(std::move(config));
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "strict mode");
  f.sim.run_until(sec(2));
  f.node_a.pump(f.sim.now());

  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetFakeImRule), 1u);
}

TEST(FleetNet, VerificationWaitsFullDelay) {
  FleetNetFixture f;
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  // Slow ids-b's uplink: bob's vouch reaches ids-a after the IM does, but
  // still within verify_delay.
  f.net.set_link(f.ids_b_host, netsim::LinkConfig{.delay = DelayModel::fixed(msec(100))});
  f.b.send_im("alice", "slow network hello");
  f.sim.run_until(sec(3));
  f.settle();

  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_EQ(f.node_a.stats().claims_confirmed, 1u);
}

TEST(FleetNet, GenuineHangupIsVouchedAndSilent) {
  FleetNetFixture f;
  const std::string call_id = f.establish_call(sec(2));
  f.b.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  // ids-a held bob's BYE for his own IDS's vouch; the vouch arrived.
  EXPECT_GE(f.node_a.stats().claims_held, 1u);
  EXPECT_GE(f.node_a.stats().claims_confirmed, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_GE(f.node_a.stats().vouches_received, 1u);
  EXPECT_GE(f.node_b.stats().vouches_sent, 1u);
  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 0u);
}

TEST(FleetNet, ForgedByeIsFlaggedBySpoofAttribution) {
  FleetNetFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));

  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  // The BYE claims bob, but bob's own IDS never vouched a hangup: forged.
  EXPECT_GE(f.node_a.stats().claims_flagged, 1u);
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 1u);
  EXPECT_EQ(rule_count(f.node_b, FleetNode::kFleetSpoofedByeRule), 0u);
}

TEST(FleetNet, GenuineMediaMigrationIsVouched) {
  FleetNetFixture f;
  const std::string call_id = f.establish_call(sec(2));
  f.b.migrate_media(call_id, {f.b_host.address(), 40000});
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_GE(f.node_a.stats().claims_confirmed, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedReinviteRule), 0u);
}

TEST(FleetNet, HijackReinviteIsFlagged) {
  FleetNetFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));

  voip::CallHijacker hijacker(f.attacker_host);
  hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 46000},
                  /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_GE(f.node_a.stats().claims_flagged, 1u);
  EXPECT_GE(rule_count(f.node_a, FleetNode::kFleetSpoofedReinviteRule), 1u);
}

TEST(FleetNet, FailsOpenWhenGossipChannelIsSevered) {
  FleetNetFixture f;
  // The peer IDS's uplink loses everything: no heartbeat, no vouch ever
  // reaches ids-a. Held claims must be skipped (counted), not flagged — a
  // dead control channel must not convert every hangup into an alarm.
  f.net.set_link(f.ids_b_host, netsim::LinkConfig{.loss = 1.0});

  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(2));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(2));
  f.settle();

  EXPECT_EQ(rule_count(f.node_a, FleetNode::kFleetSpoofedByeRule), 0u);
  EXPECT_GE(f.node_a.stats().claims_skipped_peer_down, 1u);
  EXPECT_EQ(f.node_a.stats().claims_flagged, 0u);
}

TEST(FleetNet, GarbageSepDatagramsCounted) {
  FleetNetFixture f;
  f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort},
                           std::string_view("SEP1 but \x01 bogus"));
  f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort},
                           std::string_view("not sep at all"));
  f.sim.run_until(sec(1));
  f.settle();

  const FleetNodeStats stats = f.node_a.stats();
  EXPECT_EQ(stats.parse_errors, 2u);
  EXPECT_EQ(stats.events_received, 0u);
}

TEST(FleetNet, GarbageAndLegacyDatagramsAreCounted) {
  FleetNetFixture f;
  // Garbage that claims SEP2 and a well-formed line of the retired SEP1
  // text format: decode_frame rejects both, and neither yields an event.
  for (std::string_view datagram : {
           std::string_view("SEP2 but truncated"),
           std::string_view("SEP1\tids-old\t14\tlegacy-call-1\t10000\tbob@lab.net\t"
                            "0.0.0.0:0\t0\t"),
       }) {
    f.attacker_host.send_udp(kFleetPort, {f.ids_a_host.address(), kFleetPort}, datagram);
  }
  f.sim.run_until(sec(1));
  f.settle();

  const FleetNodeStats stats = f.node_a.stats();
  EXPECT_EQ(stats.parse_errors, 2u);
  EXPECT_EQ(stats.events_received, 0u);
}

TEST(FleetCorrelation, RegisterFloodAggregatesAcrossNodes) {
  VoipFixture f;
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 64;
  Fleet fleet(fc, {"node-0", "node-1"});
  f.net.add_tap(fleet.tap());

  // Four flood identities from one source, six REGISTERs each: four
  // distinct Call-IDs scatter over the slot space, so no single node sees
  // the whole 24 — only the fleet-wide merge crosses the threshold of 20.
  std::vector<std::unique_ptr<voip::RegisterFlooder>> flooders;
  for (const char* user : {"eve-a", "eve-b", "eve-c", "eve-d"}) {
    flooders.push_back(std::make_unique<voip::RegisterFlooder>(
        f.attacker_host, pkt::Endpoint{f.proxy_host.address(), 5060}, user, "lab.net",
        static_cast<uint16_t>(5080 + flooders.size())));
  }
  for (auto& flooder : flooders) flooder->start(6, msec(40));
  f.sim.run_until(sec(2));
  fleet.flush();

  size_t fleet_alerts = 0;
  for (const core::Alert& alert : fleet.merged_alerts()) {
    if (alert.rule == kFleetRegisterFloodRule) ++fleet_alerts;
  }
  EXPECT_EQ(fleet_alerts, 1u) << "the ring owner of the key raises exactly once";

  // The aggregation was genuinely cross-node: both members saw a slice.
  size_t nodes_with_partials = 0;
  uint64_t partials_total = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const CorrelatorStats cs = fleet.node_at(i).correlator().stats();
    partials_total += cs.partials_updated;
    if (cs.partials_updated > 0) ++nodes_with_partials;
  }
  EXPECT_EQ(partials_total, 24u);
  EXPECT_EQ(nodes_with_partials, 2u);
}

TEST(FleetCorrelation, DigestGuessingAggregatesFleetWide) {
  VoipFixture f(/*require_auth=*/true);
  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 64;
  Fleet fleet(fc, {"node-0", "node-1"});
  f.net.add_tap(fleet.tap());

  // Two guessing runs with distinct Call-IDs: each node sees one slice of
  // the auth failures; the merged count crosses the fleet threshold of 8.
  voip::PasswordGuesser g1(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                           "lab.net", 5090);
  voip::PasswordGuesser g2(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                           "lab.net", 5091);
  g1.start({"pw-1", "pw-2", "pw-3", "pw-4", "pw-5", "pw-6"}, msec(60));
  g2.start({"pw-7", "pw-8", "pw-9", "pw-10", "pw-11", "pw-12"}, msec(60));
  f.sim.run_until(sec(3));
  fleet.flush();

  size_t fleet_alerts = 0;
  for (const core::Alert& alert : fleet.merged_alerts()) {
    if (alert.rule != kFleetDigestGuessRule) continue;
    ++fleet_alerts;
    // Keyed by the client the 401s challenged, not the registrar.
    EXPECT_NE(alert.message.find("from " + f.attacker_host.address().to_string() + " "),
              std::string::npos)
        << alert.message;
  }
  EXPECT_EQ(fleet_alerts, 1u);
}

TEST(FleetCorrelation, BenignAuthFailuresRaiseNoDigestGuess) {
  // Registration churn where many clients each mistype a password now and
  // then: well over the fleet threshold of failures in one window, but
  // no one source fails repeatedly, so no digest-guessing alert.
  capture::CarrierMixConfig mix;
  mix.seed = 0xd16e;
  mix.provisioned_users = 500;
  mix.call_rate_hz = 2.0;
  mix.im_rate_hz = 1.0;
  mix.register_rate_hz = 40.0;
  mix.digest_failure_probability = 0.3;
  mix.mean_call_hold_sec = 4.0;
  mix.max_packets = 6000;
  capture::CarrierMixSource source(mix);

  FleetConfig fc;
  fc.node.engine.num_shards = 1;
  fc.node.engine.engine.obs.time_stages = false;
  fc.pump_every_packets = 256;
  Fleet fleet(fc, {"node-0", "node-1"});
  fleet.run(source);
  ASSERT_GE(source.digest_failures(), 2 * CorrelatorConfig{}.digest_guess_threshold);

  for (const core::Alert& alert : fleet.merged_alerts()) {
    EXPECT_NE(alert.rule, kFleetDigestGuessRule) << alert.message;
  }
}

TEST(FleetScreening, VerdictOnOneNodeScreensThePrincipalOnAll) {
  // SPIT carrier mix through a two-node inline fleet: whichever node's
  // graylist rule convicts the spammer, the verdict gossips and every other
  // node's enforcer arms the same principal key — the spammer is screened
  // fleet-wide, not just where the evidence happened to land. Within a
  // node, the verdict reaches every shard: forwarded from the shard that
  // raised it, or adopted from the peer by all of them.
  for (size_t num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    capture::CarrierMixConfig mix;
    mix.seed = 0x5b17;
    mix.provisioned_users = 200;
    mix.call_rate_hz = 3.0;
    mix.im_rate_hz = 2.0;
    mix.register_rate_hz = 3.0;
    mix.mean_call_hold_sec = 4.0;
    mix.rtp_interval = msec(40);
    mix.spit_callers = 2;
    mix.spit_call_rate_hz = 6.0;
    mix.spit_hold = msec(300);
    mix.max_packets = 3000;
    capture::CarrierMixSource source(mix);

    FleetConfig fc;
    fc.node.engine.num_shards = num_shards;
    fc.node.engine.route_invite_by_caller = true;
    fc.node.engine.engine.obs.time_stages = false;
    fc.node.engine.engine.enforce.mode = core::EnforcementMode::kInline;
    fc.pump_every_packets = 256;
    Fleet fleet(fc, {"node-0", "node-1"});
    for (size_t i = 0; i < fleet.size(); ++i) {
      fleet.node_at(i).engine().set_rules([](size_t) {
        core::RulesConfig rc;
        rc.spit_graylist = true;
        return core::make_default_ruleset(rc);
      });
    }
    fleet.run(source);

    size_t screened = 0;
    for (const core::Verdict& v : fleet.merged_verdicts()) {
      if (v.action != core::VerdictAction::kRateLimit || v.aor.empty()) continue;
      ++screened;
      for (size_t i = 0; i < fleet.size(); ++i) {
        core::ShardedEngine& engine = fleet.node_at(i).engine();
        for (size_t s = 0; s < engine.num_shards(); ++s) {
          core::Enforcer* enforcer = engine.shard(s).enforcer();
          ASSERT_NE(enforcer, nullptr);
          EXPECT_TRUE(enforcer->limiter().armed(core::aor_key(v.aor)))
              << fleet.node_at(i).name() << " shard " << s << " never armed " << v.aor;
        }
      }
    }
    EXPECT_GE(screened, 2u) << "both spammers should draw rate-limit verdicts";

    const FleetNodeStats stats = fleet.node_stats();
    EXPECT_GE(stats.verdicts_shared, 1u);
    EXPECT_GE(stats.verdicts_adopted, 1u);
    EXPECT_EQ(stats.gossip_records_dropped, 0u);
  }
}

TEST(FleetScreening, EveryRaisedVerdictGossipsPastTheSinksRetention) {
  // The same fleet with eight spammers and verdict sinks that retain one
  // verdict: gossip reads what the shards raise, not what their sinks keep,
  // so every verdict reaches the peers.
  for (size_t num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    capture::CarrierMixConfig mix;
    mix.seed = 0x5b17;
    mix.provisioned_users = 200;
    mix.call_rate_hz = 3.0;
    mix.im_rate_hz = 2.0;
    mix.register_rate_hz = 3.0;
    mix.mean_call_hold_sec = 4.0;
    mix.rtp_interval = msec(40);
    mix.spit_callers = 8;
    mix.spit_call_rate_hz = 6.0;
    mix.spit_hold = msec(300);
    mix.max_packets = 3000;
    capture::CarrierMixSource source(mix);

    FleetConfig fc;
    fc.node.engine.num_shards = num_shards;
    fc.node.engine.route_invite_by_caller = true;
    fc.node.engine.engine.obs.time_stages = false;
    fc.node.engine.engine.enforce.mode = core::EnforcementMode::kInline;
    fc.node.engine.engine.enforce.verdict_capacity = 1;
    fc.pump_every_packets = 256;
    Fleet fleet(fc, {"node-0", "node-1"});
    for (size_t i = 0; i < fleet.size(); ++i) {
      fleet.node_at(i).engine().set_rules([](size_t) {
        core::RulesConfig rc;
        rc.spit_graylist = true;
        return core::make_default_ruleset(rc);
      });
    }
    fleet.run(source);

    uint64_t raised = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
      core::ShardedEngine& engine = fleet.node_at(i).engine();
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        raised += engine.shard(s).verdicts().total_raised();
      }
    }
    EXPECT_EQ(raised, 5u);
    const FleetNodeStats stats = fleet.node_stats();
    EXPECT_EQ(stats.verdicts_shared, raised);
    EXPECT_EQ(stats.gossip_records_dropped, 0u);
  }
}

}  // namespace
}  // namespace scidive::fleet
