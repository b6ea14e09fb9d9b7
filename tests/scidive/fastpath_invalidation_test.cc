// The established-flow bypass against its fastpath-off twin. The bypass
// steps the same flow record the full pipeline steps, so flows may share a
// destination or a source, signaling may arm monitors or re-bind endpoints
// mid-stream, and enforcement may change under bypassing flows: every
// scenario must produce the alerts, event counts and per-packet decisions
// of the fastpath-off engine, while signaling elsewhere leaves an
// established call's media on the bypass.
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
  std::string caller;  // From user; "a-<id>" when empty
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
  const std::string from = call.caller.empty() ? "a-" + call.id : call.caller;
  msg.headers().add("From", "<sip:" + from + "@lab.net>;tag=ta-" + call.id);
  msg.headers().add("To", "<sip:b-" + call.id + "@lab.net>" + (to_tag ? ";tag=tb-" + call.id : ""));
  msg.headers().add("Call-ID", call.id);
  msg.headers().add("CSeq", cseq);
}

pkt::Packet invite(const Call& call, SimTime time) {
  auto msg = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("b-" + call.id, "lab.net"));
  add_dialog_headers(msg, call, /*to_tag=*/false, "1 INVITE");
  msg.set_body(
      sip::make_audio_sdp(call.caller_media.addr.to_string(), call.caller_media.port, 1).to_string(),
      "application/sdp");
  return sip_packet(msg, call.caller_media.addr, call.callee_media.addr, time);
}

/// INVITE and 200 OK, each carrying its side's media endpoint in SDP.
std::vector<pkt::Packet> setup(const Call& call, SimTime time) {
  auto ok = sip::SipMessage::response(200, "OK");
  add_dialog_headers(ok, call, /*to_tag=*/true, "1 INVITE");
  ok.set_body(
      sip::make_audio_sdp(call.callee_media.addr.to_string(), call.callee_media.port, 2).to_string(),
      "application/sdp");
  return {invite(call, time),
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
  std::vector<VerdictAction> decisions;
};

TwinRun observe(const ScidiveEngine& engine, std::vector<VerdictAction> decisions) {
  TwinRun run;
  for (const Alert& x : engine.alerts().alerts()) run.alerts.push_back(x.to_string());
  run.events = engine.stats().events;
  run.decisions = std::move(decisions);
  return run;
}

/// Feeds `stream` to `on` and to a twin built from the same config with the
/// fast path off, calling `probe(engine, i)` on each before packet i
/// reaches it. Alerts, event counts and per-packet decisions must match.
TwinRun run_twins(const std::vector<pkt::Packet>& stream, EngineConfig config, ScidiveEngine& on,
                  const std::function<void(ScidiveEngine&, size_t)>& probe = {}) {
  config.fastpath.enabled = false;
  ScidiveEngine off(config);
  std::vector<VerdictAction> on_decisions, off_decisions;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (probe) {
      probe(on, i);
      probe(off, i);
    }
    on_decisions.push_back(on.on_packet(stream[i]));
    off_decisions.push_back(off.on_packet(stream[i]));
  }
  TwinRun a = observe(on, std::move(on_decisions));
  TwinRun b = observe(off, std::move(off_decisions));
  EXPECT_EQ(off.fastpath_bypassed(), 0u);
  EXPECT_EQ(a.alerts, b.alerts) << "the fast path changed what was detected";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.decisions, b.decisions) << "the fast path changed a per-packet decision";
  return a;
}

EngineConfig on_config() {
  EngineConfig config;
  config.obs.time_stages = false;
  return config;
}

const Call kCallA{"call-a", media(1, 16384), media(2, 16386)};
const Call kCallB{"call-b", media(3, 20000), media(4, 20002)};

TEST(FastpathInvalidation, OtherCallsSignalingLeavesEstablishedFlowsCached) {
  // Call A's media is bypassing; call B is set up, carries media and is
  // torn down in the middle of it. Every one of A's packets from then on
  // must still be bypassed: B's bindings and B's monitor touch none of A's
  // flow records.
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
  uint64_t bypassed_before = 0;
  run_twins(stream, on_config(), on, [&](ScidiveEngine& engine, size_t i) {
    if (i == from && &engine == &on) bypassed_before = engine.fastpath_bypassed();
  });
  ASSERT_GT(bypassed_before, 40u) << "call A's media should bypass before call B starts";
  // After call B starts: A's 60 packets all bypass; each of B's two
  // directions takes the full pipeline for its first packet only (stream
  // started, flow record attached), then bypasses the other 9.
  EXPECT_EQ(on.fastpath_bypassed() - bypassed_before, 60u + 18u);
  EXPECT_EQ(on.fastpath_entries(), 4u) << "B's BYE leaves its flow records attached";
}

TEST(FastpathInvalidation, ByeHandsBackOnlyThatCallsFlowsAndStillDetects) {
  // Calls A and B both bypassing; a BYE in call A arms a monitor while A's
  // flows are on the bypass. The orphan media from A's caller (the BYE
  // attack) is stepped on the bypass, which runs the monitor and raises
  // the same alert as the fastpath-off engine; nothing goes back to the
  // full pipeline.
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
  uint64_t bypassed_before = 0;
  const TwinRun run = run_twins(stream, on_config(), on, [&](ScidiveEngine& engine, size_t i) {
    if (i == at_bye && &engine == &on) bypassed_before = engine.fastpath_bypassed();
  });
  EXPECT_EQ(on.alerts().count_for_rule("bye-attack"), 1u) << "orphan media after BYE";
  EXPECT_EQ(on.fastpath_bypassed() - bypassed_before, 5u + 10u)
      << "the monitor fires on the bypass; every media packet after the BYE bypasses";
  EXPECT_FALSE(run.alerts.empty());
}

TEST(FastpathInvalidation, RebindingAnEndpointHandsBackTheFlowsThroughIt) {
  // A new call whose SDP names call A's caller endpoint drops the routes
  // through it: both of A's flows are re-classified once (the caller's
  // direction into the call that claimed the endpoint), then bypass
  // again. Call B's flows are untouched.
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
  uint64_t bypassed_before = 0;
  run_twins(stream, on_config(), on, [&](ScidiveEngine& engine, size_t i) {
    if (i == at_rebind && &engine == &on) bypassed_before = engine.fastpath_bypassed();
  });
  EXPECT_EQ(on.fastpath_bypassed() - bypassed_before, 8u + 10u)
      << "exactly A's two flows take the full pipeline once after the re-binding";
  const Trail* moved = on.trails().find("call-c", Protocol::kRtp);
  ASSERT_NE(moved, nullptr) << "call A's caller media now routes to the call that claimed it";
  EXPECT_GT(moved->total_appended(), 0u);
}

uint64_t events_of_type(ScidiveEngine& engine, EventType type) {
  return engine.metrics_snapshot().counter_value("scidive_events_by_type_total",
                                                 {{"type", std::string(event_type_name(type))}});
}

TEST(FastpathInvalidation, TwoSourcesIntoOneDestinationShareItsSequenceView) {
  // A second, unsignaled source joins call A's caller endpoint, its
  // sequence numbers running 150 ahead of the callee's. The §4.2.4 check is
  // per receiving port: both flows step the one destination record, so
  // every interleaved packet is a jump, exactly as in the full pipeline —
  // and so is the injection from the second source.
  const pkt::Endpoint intruder = media(7, 16390);
  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (uint16_t r = 0; r < 20; ++r) add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
  for (uint16_t r = 20; r < 40; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    const uint16_t seq = static_cast<uint16_t>(r + (r == 30 ? 650 : 150));
    stream.push_back(rtp_packet(intruder, kCallA.caller_media, 0xee, seq,
                                msec(110) + msec(20) * r));
  }

  ScidiveEngine on(on_config());
  run_twins(stream, on_config(), on);
  EXPECT_GE(on.alerts().count_for_rule("rtp-attack"), 1u) << "the injected jump must alert";
  EXPECT_GE(events_of_type(on, EventType::kRtpSeqJump), 2u * 20u - 1u)
      << "each packet at the shared destination jumps against the other source's";
  EXPECT_EQ(on.fastpath_bypassed(), 2u * 40u + 20u - 3u)
      << "each of the three flows takes the full pipeline for its first packet only";
}

TEST(FastpathInvalidation, OneSourceIntoTwoDestinationsSharesItsJitterEstimate) {
  // Call A's caller forks its stream to a second destination, each copy
  // arriving 30 ms after the original. Either flow alone is perfectly
  // regular; the per-source jitter estimate both flows step sees the
  // interleaving and raises the one-shot jitter alarm, on the bypass.
  const pkt::Endpoint fork = media(8, 16392);
  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (uint16_t r = 0; r < 80; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    stream.push_back(rtp_packet(kCallA.caller_media, fork, 0xa0, r,
                                msec(101) + msec(20) * r + msec(30)));
  }

  ScidiveEngine on(on_config());
  run_twins(stream, on_config(), on);
  EXPECT_EQ(events_of_type(on, EventType::kRtpJitter), 1u);
  EXPECT_EQ(on.fastpath_bypassed(), 3u * 80u - 3u);
  EXPECT_EQ(on.fastpath_entries(), 3u);
}

TEST(FastpathInvalidation, InlineVerdictsWhileOtherFlowsBypassDecideLikeTheOffTwin) {
  // Inline enforcement with SPIT graylisting: a spammer's INVITE burst is
  // rate-limited while calls A and B keep bypassing, and a drop verdict
  // against A's callee mid-stream must drop its bypassed media from the
  // next packet on. Every per-packet decision matches the off twin.
  EngineConfig config = on_config();
  config.rules.spit_graylist = true;
  config.enforce.mode = EnforcementMode::kInline;

  std::vector<pkt::Packet> stream = setup(kCallA, 0);
  for (pkt::Packet& p : setup(kCallB, msec(5))) stream.push_back(std::move(p));
  size_t block_at = 0;
  for (uint16_t r = 0; r < 40; ++r) {
    add_media_round(stream, kCallA, r, msec(100) + msec(20) * r);
    add_media_round(stream, kCallB, r, msec(105) + msec(20) * r);
    if (r >= 10 && r < 22) {
      const Call spam{"spam-" + std::to_string(r), media(static_cast<uint8_t>(20 + r), 40000),
                      media(static_cast<uint8_t>(60 + r), 40002), "spammer"};
      stream.push_back(invite(spam, msec(110) + msec(20) * r));
    }
    if (r == 30) block_at = stream.size();
  }

  ScidiveEngine on(config);
  run_twins(stream, config, on, [&](ScidiveEngine& engine, size_t i) {
    if (i != block_at) return;
    engine.enforcer()->apply(Verdict{.rule = "operator",
                                     .action = VerdictAction::kDrop,
                                     .time = msec(700),
                                     .endpoint = kCallA.callee_media});
  });
  EXPECT_EQ(on.alerts().count_for_rule("spit-graylist"), 1u);
  EXPECT_GE(on.decisions(VerdictAction::kRateLimit), 1u) << "the spam burst is shaped";
  EXPECT_EQ(on.decisions(VerdictAction::kDrop), 9u)
      << "A's callee media after the block, all of it bypassed";
  EXPECT_GT(on.fastpath_bypassed(), 4u * 35u);
}

}  // namespace
}  // namespace scidive::core
