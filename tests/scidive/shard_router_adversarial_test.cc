// ShardRouter under adversarial input: colliding Call-IDs, fragmented SIP
// whose affinity must survive reassembly, unparseable signaling, and drop
// accounting when rings saturate. The invariant throughout: routing is a
// pure function of packet content — same bytes, same shard — and nothing is
// lost silently.
#include "scidive/shard_router.h"

#include <gtest/gtest.h>

#include <map>

#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "pkt/fragment.h"
#include "scidive/sharded_engine.h"
#include "sip/message.h"

namespace scidive::core {
namespace {

pkt::Packet sip_packet(const std::string& text, pkt::Endpoint src, pkt::Endpoint dst,
                       uint16_t ip_id = 1) {
  return pkt::make_udp_packet(src, dst, Bytes(text.begin(), text.end()), ip_id);
}

std::string invite_with_call_id(const std::string& call_id) {
  return "INVITE sip:bob@lab.net SIP/2.0\r\n"
         "Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK" + call_id + "\r\n"
         "From: <sip:alice@lab.net>;tag=a1\r\n"
         "To: <sip:bob@lab.net>\r\n"
         "Call-ID: " + call_id + "\r\n"
         "CSeq: 1 INVITE\r\n"
         "Max-Forwards: 70\r\n"
         "Content-Length: 0\r\n\r\n";
}

TEST(ShardRouterAdversarial, SameCallIdFromDifferentSourcesColocates) {
  // A spoofed BYE reuses a dialog's Call-ID from a different source address
  // — that is exactly the bye-attack, and detection requires the forgery to
  // land on the shard holding the dialog.
  ShardRouter router(ShardRouterConfig{.num_shards = 8});
  pkt::Endpoint alice{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint bob{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  pkt::Endpoint attacker{pkt::Ipv4Address(10, 0, 0, 66), 5060};

  auto legit = router.route(sip_packet(invite_with_call_id("dialog-1"), alice, bob));
  ASSERT_TRUE(legit.has_value());
  std::string forged = "BYE sip:bob@lab.net SIP/2.0\r\n"
                       "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bKevil\r\n"
                       "From: <sip:alice@lab.net>;tag=a1\r\n"
                       "To: <sip:bob@lab.net>;tag=b1\r\n"
                       "Call-ID: dialog-1\r\n"
                       "CSeq: 2 BYE\r\n"
                       "Content-Length: 0\r\n\r\n";
  auto spoofed = router.route(sip_packet(forged, attacker, bob, 2));
  ASSERT_TRUE(spoofed.has_value());
  EXPECT_EQ(spoofed->shard, legit->shard);
  EXPECT_EQ(router.stats().by_call_id, 2u);
}

TEST(ShardRouterAdversarial, ManyCollidingCallIdsStayDeterministic) {
  // 200 distinct Call-IDs routed twice each: the second pass must reproduce
  // the first exactly (routing is stateless w.r.t. dialog traffic).
  ShardRouter a(ShardRouterConfig{.num_shards = 4});
  ShardRouter b(ShardRouterConfig{.num_shards = 4});
  pkt::Endpoint src{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint dst{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  std::map<std::string, size_t> assignment;
  for (int i = 0; i < 200; ++i) {
    std::string call_id = "collide-" + std::to_string(i);
    pkt::Packet p = sip_packet(invite_with_call_id(call_id), src, dst,
                               static_cast<uint16_t>(i + 1));
    auto ra = a.route(p);
    auto rb = b.route(p);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->shard, rb->shard) << call_id;
    assignment[call_id] = ra->shard;
  }
  // And the keyspace must actually spread.
  std::set<size_t> used;
  for (const auto& [id, shard] : assignment) used.insert(shard);
  EXPECT_GE(used.size(), 2u);
}

TEST(ShardRouterAdversarial, FragmentedSipKeepsSessionAffinity) {
  // An INVITE split into IP fragments: the router reassembles, routes the
  // whole datagram by Call-ID, and hands back the reassembled packet. The
  // affinity must match the same INVITE sent unfragmented.
  ShardRouter router(ShardRouterConfig{.num_shards = 8});
  pkt::Endpoint src{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint dst{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  // Pad the message so it exceeds a small MTU.
  std::string text = invite_with_call_id("frag-dialog");
  text.insert(text.find("Content-Length"), "X-Padding: " + std::string(400, 'p') + "\r\n");
  pkt::Packet whole = sip_packet(text, src, dst, 9);

  auto direct = router.route(whole);
  ASSERT_TRUE(direct.has_value());

  auto frags = pkt::fragment_ipv4(whole.data, /*mtu=*/200);
  ASSERT_TRUE(frags.ok());
  ASSERT_GT(frags.value().size(), 1u);
  std::optional<ShardRouter::Routed> last;
  size_t held = 0;
  for (const Bytes& frag : frags.value()) {
    pkt::Packet p;
    p.data = frag;
    p.timestamp = msec(1);
    auto routed = router.route(p);
    if (!routed.has_value()) {
      ++held;
      continue;
    }
    last = routed;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(held, frags.value().size() - 1);  // all but the completing fragment
  EXPECT_EQ(last->shard, direct->shard);
  ASSERT_TRUE(last->reassembled.has_value());
  EXPECT_EQ(last->reassembled->data, whole.data);
  EXPECT_EQ(router.stats().datagrams_reassembled, 1u);
  EXPECT_EQ(router.stats().fragments_held, frags.value().size() - 1);
}

TEST(ShardRouterAdversarial, UnparseableSipColocatesOnOneShard) {
  // Malformed SIP has no Call-ID to route by; all of it must share one shard
  // so rules watching malformed-signaling sessions see a consistent picture.
  ShardRouter router(ShardRouterConfig{.num_shards = 8});
  pkt::Endpoint dst{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  std::set<size_t> shards;
  for (int i = 0; i < 20; ++i) {
    pkt::Endpoint src{pkt::Ipv4Address(10, 0, 0, static_cast<uint8_t>(3 + i)), 5060};
    std::string garbage = "NOT A SIP MESSAGE \x01\x02 " + std::to_string(i);
    auto routed = router.route(sip_packet(garbage, src, dst, static_cast<uint16_t>(i)));
    ASSERT_TRUE(routed.has_value());
    shards.insert(routed->shard);
  }
  EXPECT_EQ(shards.size(), 1u);
}

/// Two routers given the same packets make the same decisions.
void expect_deterministic_routing(const std::vector<pkt::Packet>& stream) {
  ShardRouter a(ShardRouterConfig{.num_shards = 4});
  ShardRouter b(ShardRouterConfig{.num_shards = 4});
  for (const pkt::Packet& p : stream) {
    auto ra = a.route(p);
    auto rb = b.route(p);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra.has_value()) {
      EXPECT_EQ(ra->shard, rb->shard);
    }
  }
  EXPECT_EQ(a.stats().by_flow_hash, b.stats().by_flow_hash);
  EXPECT_EQ(a.media_binding_count(), b.media_binding_count());
}

/// Alerts a single engine raises on `stream`: the alerting twins below
/// check that their stream carries real detections.
size_t single_engine_alerts(const std::vector<pkt::Packet>& stream) {
  ScidiveEngine engine;
  for (const pkt::Packet& p : stream) engine.on_packet(p);
  return engine.alerts().alerts().size();
}

TEST(ShardRouterAdversarial, MutatedStreamRoutingIsDeterministic) {
  // Whatever the mutator produces, two routers given the same packets make
  // the same decisions — shard choice never depends on hidden state other
  // than the learned (deterministic) media map.
  expect_deterministic_routing(fuzz::adversarial_stream(0x90073));
}

TEST(ShardRouterAdversarial, MutatedAlertingStreamRoutingIsDeterministic) {
  const std::vector<pkt::Packet> stream =
      fuzz::adversarial_stream(0x90073, fuzz::alerting_stream_config());
  ASSERT_GT(single_engine_alerts(stream), 0u);
  expect_deterministic_routing(stream);
}

TEST(ShardRouterAdversarial, ForgetDropsOnlyAPinToTheRetiringShard) {
  // A REGISTER's Call-ID is pinned to its principal's shard. A stray copy of
  // the session retired on another shard leaves the pin; the pinned shard
  // retiring it drops the pin, and the Call-ID routes by hash again.
  ShardRouter router(ShardRouterConfig{.num_shards = 8});
  const std::string text = "REGISTER sip:lab.net SIP/2.0\r\n"
                           "Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKreg\r\n"
                           "From: <sip:alice@lab.net>;tag=a1\r\n"
                           "To: <sip:alice@lab.net>\r\n"
                           "Call-ID: reg-1\r\n"
                           "CSeq: 1 REGISTER\r\n"
                           "Content-Length: 0\r\n\r\n";
  auto routed = router.route(sip_packet(text, {pkt::Ipv4Address(10, 0, 0, 1), 5060},
                                        {pkt::Ipv4Address(10, 0, 0, 100), 5060}));
  ASSERT_TRUE(routed.has_value());
  ASSERT_EQ(router.override_count(), 1u);
  EXPECT_EQ(router.session_shard("reg-1"), routed->shard);

  router.forget("reg-1", (routed->shard + 1) % 8);
  EXPECT_EQ(router.override_count(), 1u);
  router.forget("reg-1", routed->shard);
  EXPECT_EQ(router.override_count(), 0u);
  EXPECT_EQ(router.session_shard("reg-1"), ShardRouter::shard_of("reg-1", 8));
}

TEST(ShardRouterAdversarial, StaleChecksumSignalingTeachesNothing) {
  // A SIP INVITE with SDP whose UDP checksum is stale never reaches an
  // engine (every distiller rejects it), so it must not teach the router a
  // media binding or a Call-ID pin either: it goes to shard 0 with the
  // other undecodables.
  ShardRouterConfig config;
  config.num_shards = 8;
  config.route_invite_by_caller = true;
  ShardRouter router(config);
  pkt::Endpoint alice{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  pkt::Endpoint bob{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  std::string text = invite_with_call_id("stale-1");
  const std::string sdp = "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 16384 RTP/AVP 0\r\n";
  text.replace(text.find("Content-Length: 0"), 17,
               "Content-Length: " + std::to_string(sdp.size()));
  text += sdp;
  pkt::Packet p = sip_packet(text, alice, bob);
  Distiller distiller;
  ASSERT_TRUE(distiller.distill(p)->sip()->sdp_media.has_value());
  p.data[20 + 6] ^= 0x5a;  // the UDP checksum
  ASSERT_FALSE(distiller.distill(p).has_value());

  auto routed = router.route(p);
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(routed->shard, 0u);
  EXPECT_EQ(router.media_binding_count(), 0u);
  EXPECT_EQ(router.override_count(), 0u);
  EXPECT_EQ(router.stats().by_principal + router.stats().by_call_id, 0u);
}

TEST(ShardRouterAdversarial, AccPortTakesPrecedenceOverSipPort) {
  // A datagram between the SIP port and the accounting port is an ACC
  // record to the distiller, which classifies ACC first; the router must
  // route it by its CDR call-id too, not read it as (unparseable) SIP.
  ShardRouter router(ShardRouterConfig{.num_shards = 8});
  const std::string record = "ACC START call_id=cdr-77 from=alice@lab.net to=bob@lab.net t=1";
  pkt::Packet p = sip_packet(record, {pkt::Ipv4Address(10, 0, 0, 100), 5060},
                             {pkt::Ipv4Address(10, 0, 0, 200), 9009});
  Distiller distiller;
  ASSERT_EQ(distiller.distill(p)->protocol, Protocol::kAcc);
  auto routed = router.route(p);
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(routed->shard, router.session_shard("cdr-77"));
}

/// kDrop + capacity-2 rings + an adversarial flood: the front-end must
/// account for every packet as filtered, dropped or shard-seen.
void expect_every_drop_counted(const std::vector<pkt::Packet>& stream) {
  ShardedEngineConfig sc;
  sc.num_shards = 2;
  sc.queue_capacity = 2;
  sc.overflow = OverflowPolicy::kDrop;
  sc.engine.obs.time_stages = false;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& p : stream) sharded.on_packet(p);
  sharded.flush();

  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_seen, stream.size());
  EXPECT_EQ(stats.packets_seen, stats.packets_filtered + stats.packets_dropped +
                                    sharded.router().stats().fragments_held +
                                    stats.engine.packets_seen);
  // The merged snapshot's per-shard drop counters must agree with stats().
  obs::Snapshot snapshot = sharded.metrics_snapshot();
  uint64_t dropped = 0;
  for (const obs::Sample& s : snapshot.samples()) {
    if (s.name == "scidive_shard_dropped_total") dropped += s.counter;
  }
  EXPECT_EQ(dropped, stats.packets_dropped);
}

TEST(ShardRouterAdversarial, SaturatedRingsCountEveryDrop) {
  expect_every_drop_counted(fuzz::adversarial_stream(0xf100d));
}

TEST(ShardRouterAdversarial, SaturatedRingsCountEveryDropOfAnAlertingStream) {
  const std::vector<pkt::Packet> stream =
      fuzz::adversarial_stream(0xf100d, fuzz::alerting_stream_config());
  ASSERT_GT(single_engine_alerts(stream), 0u);
  expect_every_drop_counted(stream);
}

}  // namespace
}  // namespace scidive::core
