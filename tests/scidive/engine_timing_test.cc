// Sampled stage timing: about one inspected packet in
// ScidiveEngine::kTimingPeriod is timed, on the fast path, the full
// pipeline and enforcement alike. Which packets are sampled is a pure
// function of the packet sequence; the timing values are wall-clock, so
// these tests assert sample counts, never nanoseconds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "pkt/packet.h"
#include "rtp/rtp.h"
#include "scidive/engine.h"
#include "sip/message.h"
#include "sip/sdp.h"
#include "testbed/testbed.h"

namespace scidive::core {
namespace {

const pkt::Endpoint kCaller{pkt::Ipv4Address(10, 0, 0, 1), 16384};
const pkt::Endpoint kCallee{pkt::Ipv4Address(10, 0, 0, 2), 20000};

pkt::Packet sip_packet(const sip::SipMessage& msg, pkt::Ipv4Address from, pkt::Ipv4Address to,
                       SimTime time) {
  pkt::Packet p = pkt::make_udp_packet({from, 5060}, {to, 5060}, from_string(msg.to_string()));
  p.timestamp = time;
  return p;
}

void add_dialog_headers(sip::SipMessage& msg, bool to_tag) {
  msg.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-timing");
  msg.headers().add("Max-Forwards", "70");
  msg.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  msg.headers().add("To", std::string("<sip:bob@lab.net>") + (to_tag ? ";tag=tb" : ""));
  msg.headers().add("Call-ID", "timing-call");
  msg.headers().add("CSeq", "1 INVITE");
}

/// INVITE and 200 OK, each carrying its side's media endpoint in SDP.
std::vector<pkt::Packet> call_setup() {
  auto inv = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
  add_dialog_headers(inv, /*to_tag=*/false);
  inv.set_body(sip::make_audio_sdp(kCaller.addr.to_string(), kCaller.port, 1).to_string(),
               "application/sdp");
  auto ok = sip::SipMessage::response(200, "OK");
  add_dialog_headers(ok, /*to_tag=*/true);
  ok.set_body(sip::make_audio_sdp(kCallee.addr.to_string(), kCallee.port, 2).to_string(),
              "application/sdp");
  return {sip_packet(inv, kCaller.addr, kCallee.addr, msec(0)),
          sip_packet(ok, kCallee.addr, kCaller.addr, msec(10))};
}

/// The caller's media of the established call; after its first packet the
/// flow is attached and every further packet takes the bypass.
pkt::Packet media(uint16_t seq) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * 160;
  h.ssrc = 0xa0;
  pkt::Packet p = pkt::make_udp_packet(kCaller, kCallee, rtp::serialize_rtp(h, Bytes(160, 0xd5)));
  p.timestamp = msec(100) + static_cast<SimTime>(seq) * msec(20);
  return p;
}

/// Not IPv4: always the full pipeline, which stops after the distill stage.
pkt::Packet garbage(SimTime time) {
  pkt::Packet p;
  p.data = Bytes(40, 0x00);
  p.timestamp = time;
  return p;
}

uint64_t samples(ScidiveEngine& engine, const char* name, const obs::Labels& labels = {}) {
  const obs::Snapshot snap = engine.metrics_snapshot();
  const obs::Sample* s = snap.find(name, labels);
  return s == nullptr ? 0 : s->count;
}

uint64_t stage(ScidiveEngine& engine, const char* stage) {
  return samples(engine, "scidive_stage_ns", {{"stage", stage}});
}

TEST(EngineTiming, FirstInspectedPacketIsTimed) {
  ScidiveEngine engine;
  engine.on_packet(call_setup()[0]);
  EXPECT_EQ(samples(engine, "scidive_decision_ns"), 1u);
  EXPECT_EQ(stage(engine, "distill"), 1u);
  EXPECT_EQ(stage(engine, "route"), 1u);
  EXPECT_EQ(stage(engine, "events"), 1u);
  EXPECT_EQ(stage(engine, "rules"), 1u);
  EXPECT_GT(engine.stats().processing_ns, 0u);
}

TEST(EngineTiming, IdenticalRunsSampleIdenticalPackets) {
  const std::vector<pkt::Packet> stream = testbed::four_attacks_stream();
  ScidiveEngine a, b;
  for (const pkt::Packet& p : stream) a.on_packet(p);
  for (const pkt::Packet& p : stream) b.on_packet(p);
  EXPECT_GT(samples(a, "scidive_decision_ns"), 1u);
  EXPECT_EQ(samples(a, "scidive_decision_ns"), samples(b, "scidive_decision_ns"));
  for (const char* s : {"fastpath", "distill", "route", "events", "rules"}) {
    EXPECT_EQ(stage(a, s), stage(b, s)) << s;
  }
  EXPECT_GT(stage(a, "fastpath"), 0u);
}

TEST(EngineTiming, SampleCountStaysWithinTheCountdownBounds) {
  ScidiveEngine engine;
  for (const pkt::Packet& p : call_setup()) engine.on_packet(p);
  for (uint16_t seq = 1; seq <= 5000; ++seq) engine.on_packet(media(seq));
  const uint64_t n = engine.stats().packets_inspected;
  ASSERT_EQ(n, 5002u);
  // The first inspected packet is a sample; each later one follows its
  // predecessor by a gap in [kTimingGapMin, kTimingGapMax].
  const uint64_t lo = 1 + (n - 1) / ScidiveEngine::kTimingGapMax;
  const uint64_t hi = 1 + (n - 1) / ScidiveEngine::kTimingGapMin;
  const uint64_t timed = samples(engine, "scidive_decision_ns");
  EXPECT_GE(timed, lo);
  EXPECT_LE(timed, hi);
  // Every sample took either the bypass or the full pipeline.
  EXPECT_EQ(stage(engine, "fastpath") + stage(engine, "distill"), timed);
}

TEST(EngineTiming, BypassedPacketsLandInTheFastpathStage) {
  ScidiveEngine engine;
  for (const pkt::Packet& p : call_setup()) engine.on_packet(p);
  engine.on_packet(media(1));  // attaches the flow record
  const uint64_t slow = stage(engine, "distill");
  for (uint16_t seq = 2; seq <= 2000; ++seq) engine.on_packet(media(seq));
  ASSERT_EQ(engine.fastpath_bypassed(), 1999u);
  EXPECT_GE(stage(engine, "fastpath"), 1999u / ScidiveEngine::kTimingGapMax);
  EXPECT_EQ(stage(engine, "distill"), slow) << "a bypassed packet was timed as a slow one";
}

TEST(EngineTiming, AlternatingClassesAreBothSampled) {
  // The classes repeat with period 2, which divides kTimingPeriod: a fixed
  // stride would time only one of them.
  ScidiveEngine engine;
  for (const pkt::Packet& p : call_setup()) engine.on_packet(p);
  engine.on_packet(media(1));
  const uint64_t fast0 = stage(engine, "fastpath");
  const uint64_t slow0 = stage(engine, "distill");
  for (uint16_t seq = 2; seq <= 4001; ++seq) {
    engine.on_packet(media(seq));
    engine.on_packet(garbage(media(seq).timestamp));
  }
  EXPECT_GT(stage(engine, "fastpath"), fast0 + 10);
  EXPECT_GT(stage(engine, "distill"), slow0 + 10);
}

TEST(EngineTiming, EnforcementIsTimedOnBothPaths) {
  EngineConfig config;
  config.enforce.mode = EnforcementMode::kPassive;
  ScidiveEngine engine(config);
  for (const pkt::Packet& p : call_setup()) engine.on_packet(p);
  for (uint16_t seq = 1; seq <= 2000; ++seq) engine.on_packet(media(seq));
  // The first packet took the full pipeline through decide(); the bypassed
  // ones reach decide() too.
  EXPECT_EQ(stage(engine, "enforce"), stage(engine, "fastpath") + stage(engine, "rules"));
  EXPECT_GT(stage(engine, "fastpath"), 0u);
  // A sample ends on its last stage, so its stages add up to its decision.
  const obs::Snapshot snap = engine.metrics_snapshot();
  uint64_t staged = 0;
  for (const char* s : {"fastpath", "distill", "route", "events", "rules", "enforce"}) {
    staged += snap.find("scidive_stage_ns", {{"stage", s}})->sum;
  }
  EXPECT_EQ(staged, snap.find("scidive_decision_ns")->sum);
}

TEST(EngineTiming, TimingOffRegistersNoSampledFamilies) {
  EngineConfig config;
  config.obs.time_stages = false;
  config.enforce.mode = EnforcementMode::kPassive;
  ScidiveEngine engine(config);
  for (const pkt::Packet& p : call_setup()) engine.on_packet(p);
  for (uint16_t seq = 1; seq <= 500; ++seq) engine.on_packet(media(seq));
  const obs::Snapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.find("scidive_decision_ns"), nullptr);
  EXPECT_EQ(snap.find("scidive_stage_ns", {{"stage", "fastpath"}}), nullptr);
  EXPECT_EQ(snap.find("scidive_stage_ns", {{"stage", "enforce"}}), nullptr);
  EXPECT_EQ(stage(engine, "distill"), 0u);
  EXPECT_EQ(engine.stats().processing_ns, 0u);
}

TEST(EngineTiming, EnforceStageNeedsAnEnforcer) {
  ScidiveEngine engine;  // detection only
  engine.on_packet(call_setup()[0]);
  const obs::Snapshot snap = engine.metrics_snapshot();
  EXPECT_NE(snap.find("scidive_decision_ns"), nullptr);
  EXPECT_NE(snap.find("scidive_stage_ns", {{"stage", "fastpath"}}), nullptr);
  EXPECT_EQ(snap.find("scidive_stage_ns", {{"stage", "enforce"}}), nullptr);
}

}  // namespace
}  // namespace scidive::core
