// End-to-end integration: the full SCIDIVE engine tapped on the Figure-4
// hub while the real VoIP stack runs and the real attack tools strike —
// the programmatic version of the paper's Table 1.
#include "scidive/engine.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/strings.h"
#include "scidive/scidive_test_util.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using voip::testing::VoipFixture;

/// The paper's deployment: IDS instance associated with Client A, seeing
/// the hub but inspecting only A's traffic.
struct IdsFixture : VoipFixture {
  ScidiveEngine ids;

  explicit IdsFixture(bool require_auth = false, EngineConfig config = {})
      : VoipFixture(require_auth), ids(with_home(std::move(config), a_host.address())) {
    net.add_tap(ids.tap());
  }

  static EngineConfig with_home(EngineConfig config, pkt::Ipv4Address home) {
    if (config.home_addresses.empty()) config.home_addresses = {home};
    return config;
  }
};

TEST(EngineIntegration, BenignCallProducesNoAlerts) {
  IdsFixture f;
  std::string call_id = f.establish_call(sec(5));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(2));
  EXPECT_EQ(f.ids.alerts().count(), 0u) << f.ids.alerts().alerts()[0].to_string();
  EXPECT_GT(f.ids.stats().packets_inspected, 100u);
  EXPECT_GT(f.ids.stats().events, 0u);
}

TEST(EngineIntegration, BenignCalleeHangupNoAlerts) {
  IdsFixture f;
  std::string call_id = f.establish_call(sec(3));
  f.b.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(2));
  EXPECT_EQ(f.ids.alerts().count(), 0u) << f.ids.alerts().alerts()[0].to_string();
}

TEST(EngineIntegration, MobilityReinviteNoAlerts) {
  // "The IDS can handle client mobility … and does not flag false alarms
  // for such situations" (§1).
  IdsFixture f;
  std::string call_id = f.establish_call(sec(3));
  f.b.migrate_media(call_id, {pkt::Ipv4Address(10, 0, 0, 55), 18000});
  f.sim.run_until(f.sim.now() + sec(3));
  EXPECT_EQ(f.ids.alerts().count(), 0u) << f.ids.alerts().alerts()[0].to_string();
}

TEST(EngineIntegration, Table1ByeAttackDetected) {
  IdsFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));

  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  EXPECT_GE(f.ids.alerts().count_for_rule("bye-attack"), 1u);
  // Detection delay: the alert fires within ~one RTP period + window.
  ASSERT_FALSE(f.ids.alerts().alerts().empty());
}

TEST(EngineIntegration, Table1FakeImDetected) {
  IdsFixture f;
  // B messages A legitimately first, so the IDS has B's source on file.
  f.register_both();
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "hi, this is really bob");
  f.sim.run_until(f.sim.now() + sec(1));

  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "wire money please");
  f.sim.run_until(f.sim.now() + sec(1));

  EXPECT_GE(f.ids.alerts().count_for_rule("fake-im"), 1u);
}

TEST(EngineIntegration, Table1CallHijackDetected) {
  IdsFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));

  voip::CallHijacker hijacker(f.attacker_host);
  hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 17000},
                  /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  EXPECT_GE(f.ids.alerts().count_for_rule("call-hijack"), 1u);
}

TEST(EngineIntegration, Table1RtpAttackDetected) {
  IdsFixture f;
  f.establish_call(sec(3));

  voip::RtpInjector injector(f.attacker_host, /*seed=*/77);
  injector.start({f.a_host.address(), f.a.config().rtp_port}, {.count = 20});
  f.sim.run_until(f.sim.now() + sec(1));

  EXPECT_GE(f.ids.alerts().count_for_rule("rtp-attack"), 1u);
}

TEST(EngineIntegration, RegisterFloodDetectedAtProxy) {
  // §3.3: the DoS detector watches the proxy's traffic.
  EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 100)};
  IdsFixture f(/*require_auth=*/true, config);

  voip::RegisterFlooder flooder(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  flooder.start(20, msec(100));
  f.sim.run_until(sec(10));

  EXPECT_GE(f.ids.alerts().count_for_rule("register-flood"), 1u);
  EXPECT_EQ(f.ids.alerts().count_for_rule("password-guess"), 0u);
}

TEST(EngineIntegration, PasswordGuessingDetectedAtProxy) {
  EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 100)};
  IdsFixture f(/*require_auth=*/true, config);

  voip::PasswordGuesser guesser(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  guesser.start({"guess1", "guess2", "guess3", "guess4", "guess5"});
  f.sim.run_until(sec(10));

  EXPECT_GE(f.ids.alerts().count_for_rule("password-guess"), 1u);
  EXPECT_EQ(f.ids.alerts().count_for_rule("register-flood"), 0u);
}

TEST(EngineIntegration, PasswordGuessingWithQuotedCommaInDigestUri) {
  // A guesser whose Authorization carries a quoted comma (uri="sip:lab.net,x"):
  // the digest reader must not split inside the quotes, or every attempt's
  // response reads empty and the distinct-response count never grows.
  const pkt::Endpoint guesser{pkt::Ipv4Address(10, 0, 0, 66), 5081};
  const pkt::Endpoint registrar{pkt::Ipv4Address(10, 0, 0, 100), 5060};
  EngineConfig config;
  config.home_addresses = {registrar.addr};
  config.obs.time_stages = false;
  ScidiveEngine ids(config);
  auto message = [](std::string_view start, uint32_t cseq, std::string_view extra) {
    return str::format(
        "%.*s\r\nVia: SIP/2.0/UDP 10.0.0.66:5081;branch=z9hG4bK-g%u\r\n"
        "From: <sip:alice@lab.net>;tag=g\r\nTo: <sip:alice@lab.net>\r\n"
        "Call-ID: guess-comma\r\nCSeq: %u REGISTER\r\n%.*sContent-Length: 0\r\n\r\n",
        static_cast<int>(start.size()), start.data(), cseq, cseq,
        static_cast<int>(extra.size()), extra.data());
  };
  SimTime now = msec(10);
  for (uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const std::string auth = str::format(
        "Authorization: Digest username=\"alice\", realm=\"lab.net\", nonce=\"n1\", "
        "uri=\"sip:lab.net,x\", response=\"guess-%u\"\r\n",
        attempt);
    pkt::Packet reg = pkt::make_udp_packet(
        guesser, registrar, from_string(message("REGISTER sip:lab.net SIP/2.0", attempt, auth)));
    reg.timestamp = (now += msec(50));
    ids.on_packet(reg);
    pkt::Packet rejected = pkt::make_udp_packet(
        registrar, guesser,
        from_string(message("SIP/2.0 401 Unauthorized", attempt,
                            "WWW-Authenticate: Digest realm=\"lab.net\", nonce=\"n1\"\r\n")));
    rejected.timestamp = (now += msec(5));
    ids.on_packet(rejected);
  }
  ASSERT_EQ(ids.alerts().count_for_rule("password-guess"), 1u);
  EXPECT_NE(ids.alerts().alerts()[0].message.find("3 distinct failed digest responses"),
            std::string::npos)
      << ids.alerts().alerts()[0].to_string();
}

TEST(EngineIntegration, NormalAuthRegistrationNoAlerts) {
  EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 100)};
  IdsFixture f(/*require_auth=*/true, config);
  f.register_both();  // both clients do the usual 401 dance
  EXPECT_EQ(f.ids.alerts().count(), 0u) << f.ids.alerts().alerts()[0].to_string();
}

TEST(EngineIntegration, BillingFraudDetectedAtProxy) {
  EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 100),
                           pkt::Ipv4Address(10, 0, 0, 200)};
  IdsFixture f(/*require_auth=*/false, config);
  f.proxy.set_billing_identity_bug(true);
  f.register_both();

  voip::BillingFraudster fraudster(f.attacker_host, {f.proxy_host.address(), 5060}, "lab.net");
  fraudster.place_fraudulent_call("bob", "alice@lab.net");
  f.sim.run_until(f.sim.now() + sec(3));

  EXPECT_GE(f.ids.alerts().count_for_rule("billing-fraud"), 1u);
}

TEST(EngineIntegration, HonestCallsDoNotTriggerBillingFraud) {
  EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 100),
                           pkt::Ipv4Address(10, 0, 0, 200)};
  IdsFixture f(/*require_auth=*/false, config);
  std::string call_id = f.establish_call(sec(3));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.ids.alerts().count_for_rule("billing-fraud"), 0u);
}

TEST(EngineIntegration, HomeFilterSkipsOtherTraffic) {
  IdsFixture f;  // home = A
  // B talks to the proxy without involving A.
  f.b.register_now();
  f.sim.run_until(sec(2));
  EXPECT_GT(f.ids.stats().packets_filtered, 0u);
  EXPECT_EQ(f.ids.stats().packets_inspected, 0u);
}

TEST(EngineIntegration, StatsAccumulate) {
  IdsFixture f;
  f.establish_call(sec(2));
  const EngineStats& s = f.ids.stats();
  EXPECT_EQ(s.packets_seen, s.packets_filtered + s.packets_inspected);
  EXPECT_GT(s.processing_ns, 0u);
  EXPECT_GT(f.ids.distiller().stats().rtp_footprints, 0u);
  EXPECT_GT(f.ids.distiller().stats().sip_footprints, 0u);
  EXPECT_GT(f.ids.trails().trail_count(), 0u);
}

TEST(EngineIntegration, ExpireIdleReclaimsState) {
  IdsFixture f;
  std::string call_id = f.establish_call(sec(2));
  f.a.hangup(call_id);
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_GT(f.ids.trails().trail_count(), 0u);
  auto rule_state = [&f](const char* rule) {
    return f.ids.metrics_snapshot().gauge_value("scidive_rule_state_entries",
                                                {{"rule", rule}});
  };
  // A's REGISTER left register-flood state in its registration session.
  EXPECT_GT(rule_state("register-flood"), 0);
  f.ids.expire_idle(f.sim.now() + sec(100));
  EXPECT_EQ(f.ids.trails().trail_count(), 0u);
  EXPECT_EQ(f.ids.trails().session_count(), 0u);
  EXPECT_EQ(f.ids.events().tracked_sessions(), 0u);
  EXPECT_EQ(f.ids.trails().media_binding_count(), 0u);
  for (const char* rule : {"register-flood", "password-guess", "billing-fraud"}) {
    EXPECT_EQ(rule_state(rule), 0) << rule;
  }
}

TEST(EngineIntegration, HotReloadStartsSessionRuleStateFresh) {
  // Two failed digests, a reload of the same ruleset, two more: the fresh
  // rules have seen only two, so no alert; a third after the reload raises
  // one.
  VoipFixture f(/*require_auth=*/true);
  std::vector<pkt::Packet> capture;
  f.net.add_tap([&capture](const pkt::Packet& packet) { capture.push_back(packet); });
  voip::PasswordGuesser guesser(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  guesser.start({"guess1", "guess2", "guess3", "guess4", "guess5"});
  f.sim.run_until(sec(10));

  EngineConfig config;
  config.home_addresses = {f.proxy_host.address()};
  ScidiveEngine ids(config);
  size_t failures = 0;
  ids.set_event_callback([&failures](const Event& e) {
    if (e.type == EventType::kSipAuthFailure) ++failures;
  });
  bool reloaded = false;
  for (const pkt::Packet& packet : capture) {
    ids.on_packet(packet);
    if (failures == 2 && !reloaded) {
      ids.set_rules(default_ruleset());
      reloaded = true;
    }
    if (failures == 4) {
      EXPECT_EQ(ids.alerts().count_for_rule("password-guess"), 0u);
    }
  }
  EXPECT_TRUE(reloaded);
  EXPECT_EQ(failures, 5u);
  EXPECT_EQ(ids.alerts().count_for_rule("password-guess"), 1u);
}

TEST(EngineIntegration, HotReloadStartsPrincipalRuleStateFreshButKeepsRegistrations) {
  // bob registers from .9 (the registrar's 200 commits the location) and
  // messages from .2; then the ruleset reloads. fake-im's record for bob
  // starts over, so a message from .66 is bob's first and raises nothing.
  // A move to .9 right after is still sanctioned: the registration was
  // committed before the reload, and registered locations survive it. A
  // move back to .66 is not.
  using testing::ep;
  using testing::sip_packet;
  const pkt::Endpoint proxy = ep(100, 5060);
  const std::string bob = "bob@lab.net";
  auto message = [&](const std::string& call_id, pkt::Endpoint from, SimTime time) {
    return sip_packet("MESSAGE sip:alice@lab.net SIP/2.0", bob, call_id, "MESSAGE", time, from,
                      proxy);
  };
  auto run = [&](bool registrar_accepts) {
    ScidiveEngine ids;
    ids.on_packet(sip_packet("REGISTER sip:lab.net SIP/2.0", bob, "reg-1", "REGISTER", sec(1),
                             ep(9, 5060), proxy, ep(9, 5060)));
    if (registrar_accepts) {
      ids.on_packet(sip_packet("SIP/2.0 200 OK", bob, "reg-1", "REGISTER", sec(1) + msec(10),
                               proxy, ep(9, 5060)));
    }
    ids.on_packet(message("im-1", ep(2, 5060), sec(2)));
    ids.set_rules(default_ruleset());
    const obs::Snapshot reloaded = ids.metrics_snapshot();
    EXPECT_EQ(reloaded.gauge_value("scidive_rule_state_entries", {{"rule", "fake-im"}}), 0);
    EXPECT_EQ(reloaded.gauge_value("scidive_principal_records"), registrar_accepts ? 1 : 0);
    ids.on_packet(message("im-2", ep(66, 5060), sec(3)));
    EXPECT_EQ(ids.alerts().count_for_rule("fake-im"), 0u) << "fresh record: bob's first message";
    ids.on_packet(message("im-3", ep(9, 5060), sec(4)));
    const size_t after_move = ids.alerts().count_for_rule("fake-im");
    ids.on_packet(message("im-4", ep(66, 5060), sec(5)));
    EXPECT_EQ(ids.alerts().count_for_rule("fake-im"), after_move + 1);
    return after_move;
  };
  EXPECT_EQ(run(/*registrar_accepts=*/true), 0u);
  // Control: the REGISTER alone (no 200) went with the old record.
  EXPECT_EQ(run(/*registrar_accepts=*/false), 1u);
}

TEST(EngineIntegration, AttacksAgainstBAreInvisibleToAsIds) {
  // Endpoint scope: A's IDS must not fire on an attack aimed at B.
  IdsFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  // C calls B (A not involved).
  netsim::Host c_host{"C", pkt::Ipv4Address(10, 0, 0, 3), f.net};
  f.net.attach(c_host, {.delay = DelayModel::fixed(msec(1))});
  auto cfg = f.ua_config("carol", "carol-pass");
  voip::UserAgent carol(c_host, cfg);
  f.proxy.add_user("carol", "carol-pass");
  f.register_both();
  carol.register_now();
  f.sim.run_until(sec(2));
  carol.call("bob");
  f.sim.run_until(f.sim.now() + sec(2));
  auto call = sniffer.latest_active_call();
  ASSERT_TRUE(call.has_value());
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*call, /*attack_caller=*/true);  // victim = carol
  f.sim.run_until(f.sim.now() + sec(1));
  EXPECT_EQ(f.ids.alerts().count(), 0u);
}

}  // namespace
}  // namespace scidive::core
