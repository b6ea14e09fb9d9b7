// Session records retire on packet time: the trail manager's expiry wheel
// (a touch re-arms nothing, a wake retires or re-arms, the clock never runs
// backwards), the retention the engine derives from its ruleset, and what
// detection sees across a retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "scidive/call_streams.h"
#include "scidive/engine.h"
#include "scidive/rules.h"

namespace scidive::core {
namespace {

using namespace call_streams;

Footprint sip_at(const char* method, const SessionId& call_id, SimTime time) {
  SipFootprint draft;
  draft.method = method;
  draft.cseq_method = method;
  draft.call_id = call_id;
  draft.from_aor = "a@x";
  draft.to_aor = "b@x";
  draft.is_request = true;
  draft.well_formed = true;
  Footprint fp;
  fp.protocol = Protocol::kSip;
  fp.time = time;
  fp.src = media(1, 5060);
  fp.dst = media(2, 5060);
  fp.data = SipRecord::make(draft);
  return fp;
}

RetentionPolicy retention(SimDuration closed, SimDuration open) {
  RetentionPolicy policy;
  policy.closed = closed;
  policy.open = open;
  return policy;
}

/// Mark `session`'s record closed, as the event generator's dialog mirror
/// does on a BYE.
void close_record(TrailManager& tm, const SessionId& session) {
  const Trail& trail = *tm.find(session, Protocol::kSip);
  tm.session_state(trail).closed = true;
  tm.note_closed(trail);
}

TEST(Retirement, TouchRearmsInsteadOfRetiring) {
  TrailManager tm;
  tm.set_retention(retention(msec(200), sec(1)));
  tm.add(sip_at("INVITE", "call-A", 0));
  tm.advance(msec(900));
  ASSERT_TRUE(tm.has_session("call-A"));
  // A touch moves the trail's last time and nothing on the wheel: the wake
  // due at 1 s finds the record idle for only 0.6 s and re-arms it.
  tm.add(sip_at("INFO", "call-A", msec(900)));
  tm.advance(sec(1) + msec(500));
  EXPECT_TRUE(tm.has_session("call-A"));
  EXPECT_EQ(tm.sessions_retired(), 0u);
  // Idle for its whole retention after the touch: the re-armed wake retires
  // it, and everything it owned goes with it.
  tm.advance(sec(2));
  EXPECT_FALSE(tm.has_session("call-A"));
  EXPECT_EQ(tm.session_count(), 0u);
  EXPECT_EQ(tm.trail_count(), 0u);
  EXPECT_EQ(tm.stats().sessions_retired_idle, 1u);
  EXPECT_EQ(tm.stats().sessions_retired_closed, 0u);
}

TEST(Retirement, ClosedRecordRetiresOnWakeNeverBeforeItsWindow) {
  TrailManager tm;
  tm.set_retention(retention(msec(200), sec(120)));
  tm.add(sip_at("INVITE", "call-A", 0));
  tm.add(sip_at("INVITE", "call-B", 0));
  tm.add(sip_at("BYE", "call-A", sec(1)));
  close_record(tm, "call-A");
  // Closing pulls the wake from 120 s up to the window after the BYE.
  tm.advance(sec(1) + msec(199));
  EXPECT_TRUE(tm.has_session("call-A")) << "retired before its window ran out";
  tm.advance(sec(1) + msec(200) + (SimDuration{1} << 16));
  EXPECT_FALSE(tm.has_session("call-A")) << "a coarse tick delays by at most one tick";
  EXPECT_TRUE(tm.has_session("call-B")) << "an open record keeps the open retention";
  EXPECT_EQ(tm.stats().sessions_retired_closed, 1u);
  tm.advance(sec(121));
  EXPECT_FALSE(tm.has_session("call-B"));
  EXPECT_EQ(tm.stats().sessions_retired_idle, 1u);
}

TEST(Retirement, OutOfOrderTimesNeverRewindTheClock) {
  TrailManager tm;
  tm.set_retention(retention(msec(200), sec(1)));
  tm.advance(sec(10));
  const SimTime clock = tm.wheel_time();
  EXPECT_LE(clock, sec(10));
  EXPECT_GT(clock, sec(10) - (SimDuration{1} << 16));
  // A late packet does not move the clock back...
  tm.advance(sec(1));
  EXPECT_EQ(tm.wheel_time(), clock);
  // ...and a record whose footprints are older than the clock is due at
  // the next tick, not a whole wheel turn later.
  tm.add(sip_at("INVITE", "late", sec(1)));
  tm.advance(sec(10) + msec(70));
  EXPECT_GT(tm.wheel_time(), clock);
  EXPECT_FALSE(tm.has_session("late"));
}

TEST(Retirement, RetiringDropsOnlyThatRecordsBindingsAndRoutes) {
  TrailManager tm;
  tm.set_retention(retention(msec(200), sec(120)));
  tm.add(sip_at("INVITE", "call-A", 0));
  tm.add(sip_at("INVITE", "call-B", 0));
  tm.bind_media_endpoint(media(2, 16384), "call-A");
  tm.bind_media_endpoint(media(4, 16384), "call-B");
  auto rtp = [](pkt::Endpoint src, pkt::Endpoint dst, SimTime time) {
    Footprint fp;
    fp.protocol = Protocol::kRtp;
    fp.time = time;
    fp.src = src;
    fp.dst = dst;
    fp.data = RtpFootprint{.ssrc = 1, .sequence = 1, .timestamp = 0};
    return fp;
  };
  tm.add(rtp(media(1, 16384), media(2, 16384), msec(10)));
  tm.add(rtp(media(3, 16384), media(4, 16384), msec(10)));
  tm.add(sip_at("BYE", "call-A", msec(20)));
  close_record(tm, "call-A");
  tm.add(rtp(media(3, 16384), media(4, 16384), msec(500)));
  tm.advance(msec(500));
  ASSERT_FALSE(tm.has_session("call-A"));
  EXPECT_FALSE(tm.session_for_media(media(2, 16384)).has_value());
  EXPECT_EQ(tm.find_flow(media(1, 16384), media(2, 16384), Protocol::kRtp), nullptr);
  EXPECT_EQ(tm.session_for_media(media(4, 16384)), "call-B");
  EXPECT_NE(tm.find_flow(media(3, 16384), media(4, 16384), Protocol::kRtp), nullptr)
      << "another call's cached route survives";
  EXPECT_EQ(tm.media_binding_count(), 1u);
}

TEST(Retirement, RetentionComesFromTheRuleset) {
  RulesConfig rules;
  rules.spit_graylist = true;
  EngineConfig config;
  config.rules = rules;
  ScidiveEngine engine(config);
  const RetentionPolicy& policy = engine.trails().retention();
  EXPECT_EQ(policy.closed, msec(200)) << "the monitoring window m";
  EXPECT_EQ(policy.open, sec(120)) << "fake-im's registration_window, the longest horizon";
  ASSERT_EQ(policy.rule_horizons.size(), engine.rule_count());
  std::vector<SimDuration> sorted = policy.rule_horizons;
  std::sort(sorted.begin(), sorted.end());
  // Five rules compare no times; register-flood 10 s, password-guess 30 s,
  // spit-graylist's 60s literal, fake-im 120 s.
  EXPECT_EQ(sorted,
            (std::vector<SimDuration>{0, 0, 0, 0, 0, sec(10), sec(30), sec(60), sec(120)}));
  // A C++ rule declares its own; the open retention follows the ruleset.
  engine.set_rules(make_ruleset({std::make_shared<Stateless4xxRule>()}));
  EXPECT_EQ(engine.trails().retention().open, Stateless4xxRule::kWindow);
  engine.set_rules(make_ruleset({}));
  EXPECT_EQ(engine.trails().retention().open, msec(200)) << "never below the window m";
}

EngineConfig detection_config() {
  EngineConfig config;
  config.obs.time_stages = false;
  return config;
}

const Call kCall{"call-r", media(1, 16384), media(2, 16386)};
const Call kOther{"call-o", media(3, 20000), media(4, 20002)};

/// A call set up at 0 with media both ways from 100 ms until a BYE from the
/// caller at `bye_at`.
std::vector<pkt::Packet> call_with_bye(SimTime bye_at) {
  std::vector<pkt::Packet> stream = setup(kCall, 0);
  uint16_t r = 0;
  for (SimTime t = msec(100); t < bye_at; t += msec(20)) add_media_round(stream, kCall, r++, t);
  stream.push_back(bye(kCall, bye_at));
  return stream;
}

TEST(Retirement, ForgedByeWithOrphanRtpWithinTheWindowStillAlerts) {
  // The BYE closes the record, but the window m keeps it: the caller's
  // media 150 ms later meets the monitor the BYE armed.
  std::vector<pkt::Packet> stream = call_with_bye(sec(1));
  stream.push_back(rtp_packet(kCall.caller_media, kCall.callee_media, 0xa0, 500,
                              sec(1) + msec(150)));
  ScidiveEngine engine(detection_config());
  for (const pkt::Packet& p : stream) engine.on_packet(p);
  EXPECT_EQ(engine.alerts().count_for_rule("bye-attack"), 1u);
  EXPECT_TRUE(engine.has_session(kCall.id));
}

TEST(Retirement, FinishedCallsMediaAfterRetirementRaisesNothing) {
  // A call ends; once its record has retired, a stray packet of its media
  // is a flow of its own that nothing signaled — and raises nothing.
  std::vector<pkt::Packet> stream = call_with_bye(sec(1));
  for (pkt::Packet& p : setup(kOther, sec(1) + msec(5))) stream.push_back(std::move(p));
  for (uint16_t r = 0; r < 20; ++r) add_media_round(stream, kOther, r, sec(1) + msec(20) * (r + 1));
  ScidiveEngine engine(detection_config());
  for (const pkt::Packet& p : stream) engine.on_packet(p);
  ASSERT_FALSE(engine.has_session(kCall.id)) << "retired by the other call's packet time";
  EXPECT_EQ(engine.trails().stats().sessions_retired_closed, 1u);
  EXPECT_FALSE(engine.trails().session_for_media(kCall.caller_media).has_value());
  engine.on_packet(rtp_packet(kCall.caller_media, kCall.callee_media, 0xa0, 900,
                              sec(1) + msec(420)));
  engine.on_packet(rtp_packet(kCall.caller_media, kCall.callee_media, 0xa0, 901,
                              sec(1) + msec(440)));
  EXPECT_EQ(engine.alerts().count(), 0u);
  EXPECT_FALSE(engine.has_session(kCall.id)) << "the retired binding re-created nothing";
}

TEST(Retirement, ClosedRecordHoldingRuleStateKeepsTheRulesHorizon) {
  // An unauthenticated REGISTER answered 401: the transaction closed, but
  // register-flood holds state in the record, so it stays for the rule's
  // 10 s span instead of the 200 ms window.
  auto reg = sip::SipMessage::request(sip::Method::kRegister, sip::SipUri("", "lab.net"));
  reg.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-reg");
  reg.headers().add("From", "<sip:a@lab.net>;tag=r1");
  reg.headers().add("To", "<sip:a@lab.net>");
  reg.headers().add("Call-ID", "reg-1");
  reg.headers().add("CSeq", "1 REGISTER");
  auto challenge = sip::SipMessage::response(401, "Unauthorized");
  for (const char* h : {"Via", "From", "Call-ID", "CSeq"}) {
    challenge.headers().add(h, std::string(*reg.headers().get(h)));
  }
  challenge.headers().add("To", "<sip:a@lab.net>;tag=srv");
  challenge.headers().add("WWW-Authenticate", "Digest realm=\"lab.net\", nonce=\"n1\"");
  ScidiveEngine engine(detection_config());
  engine.on_packet(sip_packet(reg, media(1, 0).addr, media(100, 0).addr, 0));
  engine.on_packet(sip_packet(challenge, media(100, 0).addr, media(1, 0).addr, msec(5)));
  // Other traffic moves the clock on.
  engine.on_packet(rtp_packet(kOther.caller_media, kOther.callee_media, 1, 1, sec(5)));
  EXPECT_TRUE(engine.has_session("reg-1")) << "kept for register-flood's span";
  engine.on_packet(rtp_packet(kOther.caller_media, kOther.callee_media, 1, 2, sec(11)));
  EXPECT_FALSE(engine.has_session("reg-1"));
  EXPECT_EQ(engine.trails().stats().sessions_retired_closed, 1u);
}

}  // namespace
}  // namespace scidive::core
