// Copy-in contract of the sharded ingest path: on_packet(const Packet&)
// copies the datagram into a ring slot's own buffer before it returns, so a
// caller may overwrite its packet straight away (run() and every capture
// loop reuse one), and a datagram larger than a slot's retained buffer —
// a reassembled one — still crosses the ring intact.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "capture/test_streams.h"
#include "fleet/fleet.h"
#include "pkt/fragment.h"
#include "rtp/rtp.h"
#include "scidive/rules.h"
#include "scidive/sharded_engine.h"
#include "sip/message.h"
#include "sip/sdp.h"
#include "testbed/testbed.h"

namespace scidive::core {
namespace {

using capture::testing::spit_mix_stream;
using capture::testing::testbed_home;

using AlertKey = std::pair<std::string, std::string>;
using VerdictKey = std::tuple<std::string, VerdictAction, std::string, std::string>;

std::multiset<AlertKey> alert_multiset(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& a : alerts) out.emplace(a.rule, a.session);
  return out;
}

std::multiset<VerdictKey> verdict_multiset(const std::vector<Verdict>& verdicts) {
  std::multiset<VerdictKey> out;
  for (const Verdict& v : verdicts) out.emplace(v.rule, v.action, v.session, v.aor);
  return out;
}

/// Feed `stream` through one packet the caller overwrites after every
/// on_packet call, the way run() and capture loops drive an engine.
template <typename Sink>
void feed_through_one_buffer(Sink& sink, const std::vector<pkt::Packet>& stream) {
  pkt::Packet packet;
  for (const pkt::Packet& next : stream) {
    packet.data.assign(next.data.begin(), next.data.end());
    packet.timestamp = next.timestamp;
    sink.on_packet(packet);
    // Scribble over the bytes just handed in: a ring slot that still
    // pointed at them would now parse garbage.
    std::fill(packet.data.begin(), packet.data.end(), uint8_t{0xee});
  }
}

struct Outputs {
  std::multiset<AlertKey> alerts;
  std::multiset<VerdictKey> verdicts;
};

/// The same stream through a single engine, a 2-worker sharded engine and
/// a 2-node fleet (one worker each); the last two fed through one reused
/// caller buffer.
std::vector<Outputs> run_three_ways(const std::vector<pkt::Packet>& stream,
                                    const EngineConfig& config, bool by_caller,
                                    const RulesetPtr& rules) {
  std::vector<Outputs> out;

  ScidiveEngine single(config);
  if (rules) single.set_rules(rules);
  for (const pkt::Packet& packet : stream) single.on_packet(packet);
  out.push_back({alert_multiset(single.alerts().alerts()),
                 verdict_multiset(single.verdicts().verdicts())});

  ShardedEngineConfig sc;
  sc.engine = config;
  sc.num_shards = 2;
  sc.route_invite_by_caller = by_caller;
  ShardedEngine sharded(sc);
  if (rules) sharded.set_rules(rules);
  feed_through_one_buffer(sharded, stream);
  sharded.flush();
  EXPECT_EQ(sharded.packets_dropped(), 0u);
  out.push_back({alert_multiset(sharded.merged_alerts()),
                 verdict_multiset(sharded.merged_verdicts())});

  fleet::FleetConfig fc;
  fc.home_addresses = config.home_addresses;
  fc.node.engine.engine = config;
  fc.node.engine.num_shards = 1;
  fc.node.engine.route_invite_by_caller = by_caller;
  fleet::Fleet fleet(fc, {"node-0", "node-1"});
  if (rules) fleet.set_rules(rules);
  feed_through_one_buffer(fleet, stream);
  fleet.flush();
  out.push_back({alert_multiset(fleet.merged_alerts()),
                 verdict_multiset(fleet.merged_verdicts())});
  return out;
}

TEST(ShardedEngine, CallerReusesOnePacketBuffer) {
  EngineConfig config;
  config.home_addresses = testbed_home();
  const std::vector<Outputs> attacks =
      run_three_ways(testbed::four_attacks_stream(), config, false, nullptr);
  EXPECT_GE(attacks[0].alerts.size(), 4u) << "the four attacks went undetected";
  EXPECT_EQ(attacks[1].alerts, attacks[0].alerts) << "2-worker sharded engine";
  EXPECT_EQ(attacks[1].verdicts, attacks[0].verdicts) << "2-worker sharded engine";
  EXPECT_EQ(attacks[2].alerts, attacks[0].alerts) << "2-node fleet";
  EXPECT_EQ(attacks[2].verdicts, attacks[0].verdicts) << "2-node fleet";

  // Verdicts too: the SPIT graylist has to see each spammer's INVITEs
  // intact, so both callers must be graylisted on every topology.
  RulesConfig rc;
  rc.spit_graylist = true;
  const RulesetPtr prevention = default_ruleset(rc);
  EngineConfig passive;
  passive.enforce.mode = EnforcementMode::kPassive;
  const std::vector<Outputs> spit =
      run_three_ways(spit_mix_stream(0x5cf1), passive, true, prevention);
  EXPECT_GE(spit[0].verdicts.size(), 2u) << "both spammers should be graylisted";
  EXPECT_EQ(spit[1].verdicts, spit[0].verdicts) << "2-worker sharded engine";
  EXPECT_EQ(spit[1].alerts, spit[0].alerts) << "2-worker sharded engine";
  EXPECT_EQ(spit[2].verdicts, spit[0].verdicts) << "2-node fleet";
  EXPECT_EQ(spit[2].alerts, spit[0].alerts) << "2-node fleet";
}

const pkt::Endpoint kASip{pkt::Ipv4Address(10, 0, 0, 1), 5060};
const pkt::Endpoint kBSip{pkt::Ipv4Address(10, 0, 0, 2), 5060};
const pkt::Endpoint kAttackerSip{pkt::Ipv4Address(10, 0, 0, 66), 5060};
const pkt::Endpoint kAMedia{pkt::Ipv4Address(10, 0, 0, 1), 16384};
const pkt::Endpoint kBMedia{pkt::Ipv4Address(10, 0, 0, 2), 16384};

sip::SipMessage dialog_request(sip::Method method, const std::string& from,
                               const std::string& to, const std::string& cseq) {
  auto m = sip::SipMessage::request(method, sip::SipUri("bob", "lab.net"));
  m.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-" + cseq);
  m.headers().add("Max-Forwards", "70");
  m.headers().add("From", from);
  m.headers().add("To", to);
  m.headers().add("Call-ID", "oversize-call");
  m.headers().add("CSeq", cseq);
  return m;
}

pkt::Packet at(pkt::Packet packet, SimTime time) {
  packet.timestamp = time;
  return packet;
}

pkt::Packet rtp_packet(pkt::Endpoint src, pkt::Endpoint dst, uint16_t seq, SimTime time) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * 160;
  h.ssrc = src == kAMedia ? 0xa11ce : 0xb0b;
  return at(pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, Bytes(160, 0xd5))), time);
}

TEST(ShardedEngine, OversizeDatagramThroughRing) {
  // An INVITE padded past a ring slot's retained buffer, arriving as IPv4
  // fragments: the router reassembles it and the worker gets the whole
  // datagram. Its call then takes a forged BYE claiming the caller hung up
  // while the caller keeps sending media. The caller's tag, AOR and media
  // endpoint come only from the INVITE, so detection depends on it having
  // crossed the ring intact.
  std::vector<pkt::Packet> stream;
  auto invite = dialog_request(sip::Method::kInvite, "<sip:alice@lab.net>;tag=ta",
                               "<sip:bob@lab.net>", "1 INVITE");
  invite.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  invite.headers().add("X-Padding", std::string(3000, 'p'));
  invite.set_body(sip::make_audio_sdp("10.0.0.1", kAMedia.port, 1).to_string(),
                  "application/sdp");
  const pkt::Packet whole = pkt::make_udp_packet(kASip, kBSip, from_string(invite.to_string()));
  ASSERT_GT(whole.data.size(), 2048u);
  auto fragments = pkt::fragment_ipv4(whole.data, 1500);
  ASSERT_TRUE(fragments.ok());
  ASSERT_GE(fragments.value().size(), 3u);
  for (Bytes& fragment : fragments.value()) stream.push_back({std::move(fragment), 0});

  auto ok = sip::SipMessage::response(200, "OK");
  ok.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-1 INVITE");
  ok.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  ok.headers().add("To", "<sip:bob@lab.net>;tag=tb");
  ok.headers().add("Call-ID", "oversize-call");
  ok.headers().add("CSeq", "1 INVITE");
  ok.headers().add("Contact", "<sip:bob@10.0.0.2:5060>");
  ok.set_body(sip::make_audio_sdp("10.0.0.2", kBMedia.port, 2).to_string(), "application/sdp");
  stream.push_back(at(pkt::make_udp_packet(kBSip, kASip, from_string(ok.to_string())), msec(10)));

  SimTime now = msec(100);
  uint16_t seq = 0;
  for (int i = 0; i < 50; ++i, ++seq, now += msec(20)) {
    stream.push_back(rtp_packet(kAMedia, kBMedia, seq, now));
    stream.push_back(rtp_packet(kBMedia, kAMedia, seq, now));
  }
  // The forged BYE claims alice hung up; alice's media keeps flowing.
  auto bye = dialog_request(sip::Method::kBye, "<sip:alice@lab.net>;tag=ta",
                            "<sip:bob@lab.net>;tag=tb", "2 BYE");
  stream.push_back(at(pkt::make_udp_packet(kAttackerSip, kBSip, from_string(bye.to_string())), now));
  for (int i = 0; i < 50; ++i, ++seq) {
    now += msec(20);
    stream.push_back(rtp_packet(kAMedia, kBMedia, seq, now));
  }

  ScidiveEngine single;
  for (const pkt::Packet& packet : stream) single.on_packet(packet);
  EXPECT_GE(single.alerts().count_for_rule("bye-attack"), 1u)
      << "scenario did not exercise bye-attack";

  ShardedEngineConfig sc;
  sc.num_shards = 2;
  sc.queue_capacity = 8;  // laps the ring many times after the big slot
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : stream) sharded.on_packet(packet);
  sharded.flush();

  EXPECT_EQ(sharded.router().stats().datagrams_reassembled, 1u);
  EXPECT_EQ(sharded.packets_dropped(), 0u);
  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));
}

}  // namespace
}  // namespace scidive::core
