// Edge cases and failure injection for the VoIP endpoints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "voip/voip_fixture.h"

namespace scidive::voip {
namespace {

using testing::VoipFixture;

TEST(UaEdge, BusyCalleeRejectsWith486) {
  VoipFixture f;
  auto cfg = f.ua_config("grumpy", "grumpy-pass");
  cfg.auto_answer = false;
  netsim::Host h{"grumpy", pkt::Ipv4Address(10, 0, 0, 8), f.net};
  f.net.attach(h, {});
  UserAgent grumpy(h, cfg);
  f.proxy.add_user("grumpy", "grumpy-pass");
  f.a.register_now();
  grumpy.register_now();
  f.sim.run_until(sec(1));

  std::string ended;
  f.a.on_call_ended = [&](const std::string& id) { ended = id; };
  std::string call_id = f.a.call("grumpy");
  f.sim.run_until(f.sim.now() + sec(2));
  EXPECT_EQ(ended, call_id);
  EXPECT_EQ(f.a.active_calls(), 0u);
  EXPECT_EQ(grumpy.active_calls(), 0u);
}

TEST(UaEdge, SimultaneousHangupBothSidesSettle) {
  VoipFixture f;
  std::string call_id = f.establish_call(sec(2));
  // Both ends hang up in the same instant: each gets a BYE for an
  // already-terminated dialog and must not blow up.
  f.a.hangup(call_id);
  f.b.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.a.active_calls(), 0u);
  EXPECT_EQ(f.b.active_calls(), 0u);
}

TEST(UaEdge, HangupUnknownCallIsNoOp) {
  VoipFixture f;
  f.register_both();
  f.a.hangup("no-such-call");  // must not crash or send anything harmful
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.a.stats().calls_ended, 0u);
}

TEST(UaEdge, SecondCallBetweenSamePairUsesDistinctMediaPorts) {
  VoipFixture f;
  f.register_both();
  std::string first = f.a.call("bob");
  f.sim.run_until(f.sim.now() + sec(2));
  std::string second = f.a.call("bob");
  f.sim.run_until(f.sim.now() + sec(2));
  const sip::Dialog* d1 = f.a.find_call(first);
  const sip::Dialog* d2 = f.a.find_call(second);
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  ASSERT_TRUE(d1->local_media() && d2->local_media());
  EXPECT_NE(d1->local_media()->port, d2->local_media()->port);
  ASSERT_TRUE(d1->remote_media() && d2->remote_media());
  EXPECT_NE(d1->remote_media()->port, d2->remote_media()->port);
}

TEST(UaEdge, CrashedClientGoesSilent) {
  VoipFixture f;
  auto cfg = f.ua_config("fragile", "fragile-pass");
  cfg.jitter_behavior = rtp::CorruptionBehavior::kCrash;
  cfg.sip_port = 5064;
  cfg.rtp_port = 16700;
  netsim::Host h{"fragile", pkt::Ipv4Address(10, 0, 0, 9), f.net};
  f.net.attach(h, {});
  UserAgent fragile(h, cfg);
  f.proxy.add_user("fragile", "fragile-pass");
  fragile.register_now();
  f.b.register_now();
  f.sim.run_until(sec(1));
  fragile.call("bob");
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_EQ(fragile.active_calls(), 1u);

  // Crash it with one wild-seq packet directly (forward jump well past the
  // takeover threshold but within int16 range of bob's live sequence).
  rtp::RtpHeader wild;
  wild.sequence = 5000;
  wild.ssrc = 0xbad;
  Bytes payload(160, 1);
  f.attacker_host.send_udp(40000, {h.address(), 16700}, rtp::serialize_rtp(wild, payload));
  // Two packets needed: first sets the playout point, second jumps. Use the
  // stream already flowing from bob + one wild packet: bob's stream set the
  // point, so one wild packet suffices.
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_TRUE(fragile.crashed());

  // A crashed client must not respond to anything.
  uint64_t b_rtp = f.b.stats().rtp_received;
  f.b.send_im("fragile", "you there?");
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_TRUE(fragile.received_ims().empty());
  (void)b_rtp;
}

TEST(UaEdge, ReRegistrationFromNewAddressMovesBinding) {
  // Mobility at the registrar: the same user registers from a new device;
  // calls route to the new contact.
  VoipFixture f;
  f.register_both();
  EXPECT_EQ(f.proxy.lookup("bob@lab.net")->addr, f.b_host.address());

  netsim::Host new_device{"bob2", pkt::Ipv4Address(10, 0, 0, 22), f.net};
  f.net.attach(new_device, {});
  auto cfg = f.ua_config("bob", "bob-pass");
  UserAgent bob2(new_device, cfg);
  bob2.register_now();
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.proxy.lookup("bob@lab.net")->addr, new_device.address());

  f.a.call("bob");
  f.sim.run_until(f.sim.now() + sec(2));
  EXPECT_EQ(bob2.active_calls(), 1u);   // new device rings
  EXPECT_EQ(f.b.active_calls(), 0u);    // old device silent
}

TEST(UaEdge, OptionsPingAnswered200) {
  VoipFixture f;
  f.register_both();
  auto options = sip::SipMessage::request(sip::Method::kOptions,
                                          sip::SipUri("alice", "10.0.0.1", 5060));
  options.headers().add("Via", "SIP/2.0/UDP 10.0.0.2:5060;branch=z9hG4bK-ping");
  options.headers().add("From", "<sip:bob@lab.net>;tag=ping");
  options.headers().add("To", "<sip:alice@lab.net>");
  options.headers().add("Call-ID", "ping-1");
  options.headers().add("CSeq", "1 OPTIONS");
  int code = 0;
  f.b_host.bind_udp(5061, [&](pkt::Endpoint, std::span<const uint8_t> payload, SimTime) {
    auto rsp = sip::SipMessage::parse(payload);
    if (rsp.ok() && rsp.value().is_response()) code = rsp.value().status_code();
  });
  // Send from a side port so the response comes back to our probe.
  auto via = sip::Via{};
  via.host = "10.0.0.2";
  via.port = 5061;
  via.params["branch"] = "z9hG4bK-ping";
  options.headers().set("Via", via.to_string());
  f.b_host.send_udp(5061, f.a.sip_endpoint(), options.to_string());
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(code, 200);
}

TEST(UaEdge, UnsupportedMethodGets501) {
  VoipFixture f;
  f.register_both();
  auto subscribe = sip::SipMessage::parse(std::string_view(
      "SUBSCRIBE sip:alice@10.0.0.1 SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.2:5061;branch=z9hG4bK-sub\r\n"
      "From: <sip:bob@lab.net>;tag=s\r\n"
      "To: <sip:alice@lab.net>\r\n"
      "Call-ID: sub-1\r\n"
      "CSeq: 1 SUBSCRIBE\r\n\r\n")).value();
  int code = 0;
  f.b_host.bind_udp(5061, [&](pkt::Endpoint, std::span<const uint8_t> payload, SimTime) {
    auto rsp = sip::SipMessage::parse(payload);
    if (rsp.ok() && rsp.value().is_response()) code = rsp.value().status_code();
  });
  f.b_host.send_udp(5061, f.a.sip_endpoint(), subscribe.to_string());
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(code, 501);
}

TEST(UaEdge, CancelledRingingCallGets487AndNever200) {
  // RFC 3261 §9.2: a CANCEL reaching a callee that still rings is answered
  // 200, the INVITE is answered 487, the call ends, and the answer the ring
  // timer would have sent never goes out.
  VoipFixture f;
  f.register_both();
  const auto request = [](const char* method) {
    return sip::SipMessage::parse(std::string(method) +
                                  " sip:alice@10.0.0.1 SIP/2.0\r\n"
                                  "Via: SIP/2.0/UDP 10.0.0.2:5061;branch=z9hG4bK-ring\r\n"
                                  "From: <sip:bob@lab.net>;tag=r\r\n"
                                  "To: <sip:alice@lab.net>\r\n"
                                  "Call-ID: ring-1\r\n"
                                  "CSeq: 1 " +
                                  method + "\r\n\r\n")
        .value();
  };
  std::vector<std::string> responses;  // "<code> <CSeq method>"
  f.b_host.bind_udp(5061, [&](pkt::Endpoint, std::span<const uint8_t> payload, SimTime) {
    auto rsp = sip::SipMessage::parse(payload);
    if (!rsp.ok() || !rsp.value().is_response()) return;
    auto cs = rsp.value().cseq();
    responses.push_back(std::to_string(rsp.value().status_code()) + " " +
                        (cs.ok() ? cs.value().method : "?"));
  });
  f.b_host.send_udp(5061, f.a.sip_endpoint(), request("INVITE").to_string());
  f.sim.run_until(f.sim.now() + msec(200));  // ringing: answer_delay is 500 ms
  f.b_host.send_udp(5061, f.a.sip_endpoint(), request("CANCEL").to_string());
  f.sim.run_until(f.sim.now() + sec(2));

  EXPECT_EQ(responses, (std::vector<std::string>{"180 INVITE", "200 CANCEL", "487 INVITE"}));
  EXPECT_EQ(f.a.active_calls(), 0u);
  EXPECT_EQ(f.a.stats().calls_ended, 1u);
  EXPECT_EQ(f.a.stats().calls_established, 0u);
}

TEST(UaEdge, LossyNetworkCallStillEstablishes) {
  // 10% loss on every link: SIP retransmission machinery must converge.
  VoipFixture f(false, netsim::LinkConfig{.delay = DelayModel::fixed(msec(1)), .loss = 0.10});
  f.register_both();
  ASSERT_TRUE(f.a.registered());
  f.a.call("bob");
  f.sim.run_until(f.sim.now() + sec(20));
  EXPECT_EQ(f.a.active_calls(), 1u);
  EXPECT_EQ(f.b.active_calls(), 1u);
}

}  // namespace
}  // namespace scidive::voip
