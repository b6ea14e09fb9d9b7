// Targeted fast-path invalidation: signaling hands back exactly the cached
// flows it touches. Call setup and teardown elsewhere leave an established
// call's media on the fast path; a BYE or a re-binding hands back only the
// flows of that call or through that endpoint. Every scenario also runs on a
// fastpath-off twin, and the alerts and event counts must match.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "pkt/packet.h"
#include "rtp/rtp.h"
#include "scidive/engine.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::core {
namespace {

pkt::Endpoint media(uint8_t host, uint16_t port) {
  return {pkt::Ipv4Address(10, 0, 0, host), port};
}

/// One call: the caller signals from caller_media's host, the callee from
/// callee_media's host, each offering its media endpoint in SDP.
struct Call {
  std::string id;
  pkt::Endpoint caller_media;
  pkt::Endpoint callee_media;
};

pkt::Packet sip_packet(const sip::SipMessage& msg, pkt::Ipv4Address from, pkt::Ipv4Address to,
                       SimTime time) {
  pkt::Packet p = pkt::make_udp_packet({from, 5060}, {to, 5060}, from_string(msg.to_string()));
  p.timestamp = time;
  return p;
}

void add_dialog_headers(sip::SipMessage& msg, const Call& call, bool to_tag,
                        const std::string& cseq) {
  msg.headers().add("Via", "SIP/2.0/UDP " + call.caller_media.addr.to_string() +
                               ":5060;branch=z9hG4bK-" + call.id);
  msg.headers().add("Max-Forwards", "70");
  msg.headers().add("From", "<sip:a-" + call.id + "@lab.net>;tag=ta-" + call.id);
  msg.headers().add("To", "<sip:b-" + call.id + "@lab.net>" + (to_tag ? ";tag=tb-" + call.id : ""));
  msg.headers().add("Call-ID", call.id);
  msg.headers().add("CSeq", cseq);
}

/// INVITE and 200 OK, each carrying its side's media endpoint in SDP.
std::vector<pkt::Packet> setup(const Call& call, SimTime time) {
  auto invite = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("b-" + call.id, "lab.net"));
  add_dialog_headers(invite, call, /*to_tag=*/false, "1 INVITE");
  invite.set_body(
      sip::make_audio_sdp(call.caller_media.addr.to_string(), call.caller_media.port, 1).to_string(),
      "application/sdp");
  auto ok = sip::SipMessage::response(200, "OK");
  add_dialog_headers(ok, call, /*to_tag=*/true, "1 INVITE");
  ok.set_body(
      sip::make_audio_sdp(call.callee_media.addr.to_string(), call.callee_media.port, 2).to_string(),
      "application/sdp");
  return {sip_packet(invite, call.caller_media.addr, call.callee_media.addr, time),
          sip_packet(ok, call.callee_media.addr, call.caller_media.addr, time + msec(10))};
}

/// BYE from the caller: arms a monitor on the caller's media in the call.
pkt::Packet bye(const Call& call, SimTime time) {
  auto msg = sip::SipMessage::request(sip::Method::kBye, sip::SipUri("b-" + call.id, "lab.net"));
  add_dialog_headers(msg, call, /*to_tag=*/true, "2 BYE");
  return sip_packet(msg, call.caller_media.addr, call.callee_media.addr, time);
}

pkt::Packet rtp_packet(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc, uint16_t seq,
                       SimTime time) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * 160;
  h.ssrc = ssrc;
  pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, Bytes(160, 0xd5)));
  p.timestamp = time;
  return p;
}

/// Both directions of a call's media, one packet each per 20 ms round.
void add_media_round(std::vector<pkt::Packet>& out, const Call& call, uint16_t round,
                     SimTime time) {
  out.push_back(rtp_packet(call.callee_media, call.caller_media, 0xb0, round, time));
  out.push_back(rtp_packet(call.caller_media, call.callee_media, 0xa0, round, time + msec(1)));
}

struct TwinRun {
  std::vector<std::string> alerts;
  uint64_t events = 0;
};

/// Feeds `stream` to a fastpath-on and a fastpath-off engine, calling
/// `probe(on, i)` before packet i reaches the fastpath-on engine.
TwinRun run_twins(const std::vector<pkt::Packet>& stream,
              const std::function<void(ScidiveEngine&, size_t)>& probe, ScidiveEngine* on) {
  EngineConfig off_config;
  off_config.obs.time_stages = false;
  off_config.fastpath.enabled = false;
  ScidiveEngine off(off_config);
  for (size_t i = 0; i < stream.size(); ++i) {
    probe(*on, i);
    on->on_packet(stream[i]);
    off.on_packet(stream[i]);
  }
  TwinRun a, b;
  for (const Alert& x : on->alerts().alerts()) a.alerts.push_back(x.to_string());
  for (const Alert& x : off.alerts().alerts()) b.alerts.push_back(x.to_string());
  a.events = on->stats().events;
  b.events = off.stats().events;
  EXPECT_EQ(a.alerts, b.alerts) << "the fast path changed what was detected";
  EXPECT_EQ(a.events, b.events);
  return a;
}

EngineConfig on_config() {
  EngineConfig config;
  config.obs.time_stages = false;
  return config;
}

uint64_t invalidations(ScidiveEngine& engine) {
  return engine.metrics_snapshot().counter_value("scidive_fastpath_invalidations_total", {});
}

const Call kCallA{"call-a", media(1, 16384), media(2, 16386)};
const Call kCallB{"call-b", media(3, 20000), media(4, 20002)};

TEST(FastpathInvalidation, OtherCallsSignalingLeavesEstablishedFlowsCached) {
  // Call A's media is cached; call B is set up, carries media and is torn
  // down in the middle of it. Every one of A's packets from then on must
  // still be bypassed: B's bindings and B's monitor touch none of A's flows.
  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (uint16_t r = 0; r < 30; ++r) add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
  const size_t from = stream.size();
  for (pkt::Packet& p : setup(kCallB, msec(700))) stream.push_back(std::move(p));
  for (uint16_t r = 30; r < 60; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    if (r < 40) add_media_round(stream, kCallB, r - 30, msec(105) + msec(20) * r);
    if (r == 40) stream.push_back(bye(kCallB, msec(105) + msec(20) * r));
  }

  ScidiveEngine on(on_config());
  uint64_t bypassed_before = 0, invalidations_before = 0;
  run_twins(
      stream,
      [&](ScidiveEngine& engine, size_t i) {
        if (i != from) return;
        bypassed_before = engine.fastpath_bypassed();
        invalidations_before = invalidations(engine);
      },
      &on);
  ASSERT_GT(bypassed_before, 40u) << "call A's media should be cached before call B starts";
  EXPECT_EQ(invalidations(on) - invalidations_before, 2u)
      << "only call B's own two flows go back, at its BYE";
  // After call B starts: A's 60 packets all bypass; each of B's two
  // directions takes the full pipeline for its first packet (stream
  // started) and its second (caching it), then bypasses 8 of its 10.
  EXPECT_EQ(on.fastpath_bypassed() - bypassed_before, 60u + 16u);
}

TEST(FastpathInvalidation, ByeHandsBackOnlyThatCallsFlowsAndStillDetects) {
  // Calls A and B both cached; a BYE in call A followed by orphan media
  // from A's caller (the BYE attack) must hand back A's two flows, leave
  // B's cached, and raise the same alert as the fastpath-off engine.
  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (pkt::Packet& p : setup(kCallB, msec(5))) stream.push_back(std::move(p));
  for (uint16_t r = 0; r < 30; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    add_media_round(stream, kCallB, r, msec(105) + msec(20) * r);
  }
  const size_t at_bye = stream.size();
  stream.push_back(bye(kCallA, msec(700)));
  for (uint16_t r = 30; r < 35; ++r) {
    stream.push_back(rtp_packet(kCallA.caller_media, kCallA.callee_media, 0xa0, r,
                                msec(100) + msec(20) * r));
    add_media_round(stream, kCallB, r, msec(105) + msec(20) * r);
  }

  ScidiveEngine on(on_config());
  uint64_t invalidations_before = 0;
  const TwinRun run = run_twins(
      stream,
      [&](ScidiveEngine& engine, size_t i) {
        if (i == at_bye) invalidations_before = invalidations(engine);
      },
      &on);
  EXPECT_EQ(on.alerts().count_for_rule("bye-attack"), 1u) << "orphan media after BYE";
  EXPECT_EQ(invalidations(on) - invalidations_before, 2u)
      << "exactly call A's two cached flows are handed back";
  EXPECT_FALSE(run.alerts.empty());
}

TEST(FastpathInvalidation, RebindingAnEndpointHandsBackTheFlowsThroughIt) {
  // A new call whose SDP names call A's caller endpoint re-routes A's
  // media into the new session: both of A's flows touch that endpoint and
  // are handed back; call B's flows are untouched.
  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (pkt::Packet& p : setup(kCallB, msec(5))) stream.push_back(std::move(p));
  for (uint16_t r = 0; r < 30; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    add_media_round(stream, kCallB, r, msec(105) + msec(20) * r);
  }
  const size_t at_rebind = stream.size();
  const Call reuse{"call-c", kCallA.caller_media, media(5, 30000)};
  for (pkt::Packet& p : setup(reuse, msec(700))) stream.push_back(std::move(p));
  for (uint16_t r = 30; r < 35; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    add_media_round(stream, kCallB, r, msec(105) + msec(20) * r);
  }

  ScidiveEngine on(on_config());
  uint64_t invalidations_before = 0;
  run_twins(
      stream,
      [&](ScidiveEngine& engine, size_t i) {
        if (i == at_rebind) invalidations_before = invalidations(engine);
      },
      &on);
  EXPECT_EQ(invalidations(on) - invalidations_before, 2u)
      << "the INVITE re-binds A's caller endpoint: exactly A's two flows go back";
  const Trail* moved = on.trails().find("call-c", Protocol::kRtp);
  ASSERT_NE(moved, nullptr) << "call A's media now routes to the call that claimed it";
  EXPECT_GT(moved->total_appended(), 0u);
}

}  // namespace
}  // namespace scidive::core
