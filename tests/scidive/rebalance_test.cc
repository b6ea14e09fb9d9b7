// Session migration: extract_session / install_session move a whole
// session record between shards or engines at a quiesce point (the fleet's
// churn handoff), and must never change *what* is detected — an attack in
// progress keeps being detected, rule state included, and the moved
// session lives on exactly one shard.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ruledsl/loader.h"
#include "scidive/call_streams.h"
#include "scidive/scidive_test_util.h"
#include "scidive/sharded_engine.h"
#include "sip/message.h"
#include "voip/accounting.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using voip::testing::VoipFixture;

struct CaptureFixture : VoipFixture {
  std::vector<pkt::Packet> capture;

  explicit CaptureFixture(bool require_auth = false) : VoipFixture(require_auth) {
    net.add_tap([this](const pkt::Packet& packet) { capture.push_back(packet); });
  }
};

EngineConfig home_config(pkt::Ipv4Address home) {
  EngineConfig config;
  config.home_addresses = {home};
  return config;
}

/// Move `session` off the shard that holds it to the next one, through the
/// handoff API the fleet uses (after flush(), from the feeding thread).
/// Returns the destination shard.
size_t move_to_next_shard(ShardedEngine& sharded, const SessionId& session) {
  sharded.flush();
  size_t from = sharded.num_shards();
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    if (sharded.shard(i).has_session(session)) from = i;
  }
  EXPECT_LT(from, sharded.num_shards()) << "no shard holds " << session;
  const size_t to = (from + 1) % sharded.num_shards();
  TrailManager::ExtractedSession moved = sharded.extract_session(session);
  EXPECT_TRUE(moved.valid());
  EXPECT_TRUE(sharded.install_session(std::move(moved), to));
  EXPECT_FALSE(sharded.shard(from).has_session(session));
  EXPECT_TRUE(sharded.shard(to).has_session(session));
  return to;
}

TEST(Rebalance, MigratedSessionKeepsDetectingMidAttack) {
  // Establish a call, migrate its session to another shard, THEN run the
  // BYE attack: detection depends on dialog + media state built before the
  // migration, so an alert proves the state moved intact.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  const std::string call_id = f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_GT(f.capture.size(), pre_attack);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (size_t i = 0; i < pre_attack; ++i) sharded.on_packet(f.capture[i]);
  move_to_next_shard(sharded, call_id);
  // The router now sends the moved session to its new shard.
  EXPECT_GE(sharded.metrics_snapshot().gauge_value("scidive_router_affinity_overrides"), 1);
  for (size_t i = pre_attack; i < f.capture.size(); ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();

  size_t with_rule = 0;
  for (const Alert& a : sharded.merged_alerts()) {
    if (a.rule == "bye-attack") ++with_rule;
  }
  EXPECT_GE(with_rule, 1u);

  // The migrated session lives on exactly one shard.
  const std::vector<Alert> merged = sharded.merged_alerts();
  ASSERT_FALSE(merged.empty());
  size_t holders = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    if (sharded.shard(i).has_session(merged.front().session)) ++holders;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(Rebalance, MigrationFlushesFastpathCacheAndKeepsDetecting) {
  // The migrated call's media flow was being bypassed by the established-
  // flow fast path; extract/install on migration drops the flow records
  // and moves the session state they pointed at, so the destination shard
  // still detects the BYE attack that depends on pre-migration dialog +
  // media state.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  const std::string call_id = f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_GT(f.capture.size(), pre_attack);

  ShardedEngineConfig sc;
  sc.engine = home_config(f.a_host.address());
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  for (size_t i = 0; i < pre_attack; ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();
  uint64_t bypassed = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    bypassed += sharded.shard(i).fastpath_bypassed();
  }
  ASSERT_GT(bypassed, 0u) << "the call's steady media must have engaged the fast path";

  move_to_next_shard(sharded, call_id);
  for (size_t i = pre_attack; i < f.capture.size(); ++i) sharded.on_packet(f.capture[i]);
  sharded.flush();

  size_t with_rule = 0;
  for (const Alert& a : sharded.merged_alerts()) {
    if (a.rule == "bye-attack") ++with_rule;
  }
  EXPECT_GE(with_rule, 1u) << "migration of a bypassed flow must not lose the attack";
  uint64_t bypassed_after = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    bypassed_after += sharded.shard(i).fastpath_bypassed();
  }
  EXPECT_GT(bypassed_after, bypassed) << "migrated flows re-attach and bypass again";
}

TEST(Rebalance, MovedRecordRetiresAtTheSamePacketInItsNewEngine) {
  // A record's deadline moves with it: a call closed by its BYE and handed
  // to another engine inside its window retires at the same packet of the
  // ongoing stream there as in an engine that kept it all along — whether
  // the new engine has seen traffic before or not.
  using namespace call_streams;
  const Call ended{"call-ended", media(1, 16384), media(2, 16386)};
  const Call other{"call-other", media(3, 20000), media(4, 20002)};
  std::vector<pkt::Packet> stream = setup(ended, 0);
  for (pkt::Packet& p : setup(other, msec(1))) stream.push_back(std::move(p));
  size_t handoff = 0;
  for (uint16_t r = 0; r < 100; ++r) {
    const SimTime t = msec(100) + msec(20) * r;
    if (r < 20) add_media_round(stream, ended, r, t);
    if (r == 20) {
      stream.push_back(bye(ended, t));
      handoff = stream.size();
    }
    add_media_round(stream, other, r, t + msec(5));
  }
  auto retired_at = [&](ScidiveEngine& engine, size_t from) {
    for (size_t i = from; i < stream.size(); ++i) {
      engine.on_packet(stream[i]);
      if (!engine.has_session(ended.id)) return i;
    }
    return stream.size();
  };

  ScidiveEngine kept;
  const size_t expected = retired_at(kept, 0);
  ASSERT_LT(expected, stream.size()) << "the closed record must retire within the stream";
  ASSERT_GT(expected, handoff + 8) << "the handoff must come inside the record's window";

  // One source per target: the fresh target has seen no packet before the
  // install, the warm one every packet of the other call.
  auto is_other = [&](const pkt::Packet& p) {
    const auto ends = Distiller::header_endpoints(p);
    return ends && (ends->first.addr == other.caller_media.addr ||
                    ends->first.addr == other.callee_media.addr);
  };
  for (bool warm_target : {false, true}) {
    ScidiveEngine source, target;
    for (size_t i = 0; i < handoff; ++i) {
      source.on_packet(stream[i]);
      if (warm_target && is_other(stream[i])) target.on_packet(stream[i]);
    }
    TrailManager::ExtractedSession moved = source.extract_session(ended.id);
    ASSERT_TRUE(moved.valid());
    target.install_session(std::move(moved));
    EXPECT_TRUE(target.has_session(ended.id));
    EXPECT_EQ(retired_at(target, handoff), expected) << (warm_target ? "warm" : "fresh");
    EXPECT_EQ(target.trails().stats().sessions_retired_closed, 1u);
  }
}

TEST(Rebalance, ExtractInstallHandoffWritesBackExactMicrostate) {
  // The fleet session-handoff primitive at engine level: extract a session
  // whose media flow is mid-bypass, install it on a second engine, and the
  // continued replay must produce alerts byte-identical to an undisturbed
  // single engine — proving the migrated sequence/jitter state the bypass
  // stepped in place is exact, not merely close.
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  const size_t pre_attack = f.capture.size();
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  const EngineConfig config = home_config(f.a_host.address());
  ScidiveEngine reference(config);
  for (const pkt::Packet& packet : f.capture) reference.on_packet(packet);
  ASSERT_GE(reference.alerts().count_for_rule("bye-attack"), 1u);
  std::string session;
  for (const Alert& a : reference.alerts().alerts()) {
    if (a.rule == "bye-attack") session = a.session;
  }
  ASSERT_FALSE(session.empty());

  ScidiveEngine source(config);
  for (size_t i = 0; i < pre_attack; ++i) source.on_packet(f.capture[i]);
  ASSERT_GT(source.fastpath_bypassed(), 0u);
  ASSERT_TRUE(source.has_session(session));
  TrailManager::ExtractedSession transfer = source.extract_session(session);
  ASSERT_TRUE(transfer.valid());
  EXPECT_EQ(source.fastpath_entries(), 0u) << "handoff must flush the flow cache";

  ScidiveEngine target(config);
  target.install_session(std::move(transfer));
  for (size_t i = pre_attack; i < f.capture.size(); ++i) target.on_packet(f.capture[i]);

  std::vector<std::string> got, want;
  for (const Alert& a : source.alerts().alerts()) got.push_back(a.to_string());
  for (const Alert& a : target.alerts().alerts()) got.push_back(a.to_string());
  for (const Alert& a : reference.alerts().alerts()) want.push_back(a.to_string());
  EXPECT_EQ(got, want);
  EXPECT_GE(target.alerts().count_for_rule("bye-attack"), 1u);
}

/// Replays `capture` into `source` until it has emitted `before` events of
/// the `evidence` types, moves the session of the last one to `target`
/// (extract_session/install_session: one record, rule state included) and
/// replays the rest into `target`. Returns the first packet `target` saw.
size_t replay_with_handoff(const std::vector<pkt::Packet>& capture, EventTypeMask evidence,
                           size_t before, ScidiveEngine& source, ScidiveEngine& target) {
  size_t seen = 0;
  SessionId session;
  source.set_event_callback([&](const Event& e) {
    if ((evidence & event_mask(e.type)) == 0) return;
    ++seen;
    session = e.session;
  });
  size_t i = 0;
  while (i < capture.size() && seen < before) source.on_packet(capture[i++]);
  EXPECT_EQ(seen, before);
  TrailManager::ExtractedSession moved = source.extract_session(session);
  EXPECT_TRUE(moved.valid());
  target.install_session(std::move(moved));
  for (size_t j = i; j < capture.size(); ++j) target.on_packet(capture[j]);
  return i;
}

TEST(Rebalance, PasswordGuessStateCrossesMigrationMidAttack) {
  // Two of the three distinct failed digests reach the source, the third
  // the target: only the moved record's rule state can complete the count.
  CaptureFixture f(/*require_auth=*/true);
  voip::PasswordGuesser guesser(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  guesser.start({"guess1", "guess2", "guess3"});
  f.sim.run_until(sec(10));

  const EngineConfig config = home_config(f.proxy_host.address());
  ScidiveEngine source(config), target(config);
  const size_t split = replay_with_handoff(
      f.capture, event_mask(EventType::kSipAuthFailure), 2, source, target);
  EXPECT_EQ(source.alerts().count_for_rule("password-guess"), 0u);
  EXPECT_EQ(target.alerts().count_for_rule("password-guess"), 1u);
  EXPECT_EQ(target.alerts().count(), 1u);

  // Control: the tail alone holds one failure, which alerts nowhere.
  ScidiveEngine tail_only(config);
  for (size_t i = split; i < f.capture.size(); ++i) tail_only.on_packet(f.capture[i]);
  EXPECT_EQ(tail_only.alerts().count_for_rule("password-guess"), 0u);
}

TEST(Rebalance, SessionKeyedDslStateCrossesMigrationMidAttack) {
  // The `key session` billing-fraud rule: a CDR with no matching call setup
  // (AccUnmatched) reaches the source, a malformed INVITE of the same call
  // (SipMalformed, a second kind of evidence) the target.
  auto datagram = [](pkt::Endpoint src, pkt::Endpoint dst, const std::string& text,
                     SimTime time) {
    pkt::Packet packet = pkt::make_udp_packet(src, dst, Bytes(text.begin(), text.end()));
    packet.timestamp = time;
    return packet;
  };
  const pkt::Endpoint proxy{pkt::Ipv4Address(10, 0, 0, 100), 5060};
  const pkt::Endpoint caller{pkt::Ipv4Address(10, 0, 0, 66), 5060};
  voip::AccRecord cdr{voip::AccRecord::Kind::kStart, "fraud-x", "alice@lab.net",
                      "bob@lab.net", msec(10)};
  auto invite = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
  invite.headers().add("Via", "SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-fx");
  invite.headers().add("From", "<sip:mallory@lab.net>;tag=m1");
  invite.headers().add("To", "<sip:bob@lab.net>");
  invite.headers().add("Call-ID", "fraud-x");
  invite.headers().add("CSeq", "1 BYE");  // method mismatch: malformed
  const std::vector<pkt::Packet> capture = {
      datagram({proxy.addr, 9010}, {pkt::Ipv4Address(10, 0, 0, 200), voip::kAccPort},
               cdr.serialize(), msec(10)),
      datagram(caller, proxy, invite.to_string(), msec(20)),
  };

  auto ruleset =
      ruledsl::compile_ruleset_file(std::string(SCIDIVE_RULESET_DIR) + "/billing_fraud.sdr");
  ASSERT_TRUE(ruleset.ok()) << ruleset.error().to_string();
  const RulesetPtr rules = ruledsl::make_ruleset(ruleset.value());
  ScidiveEngine source, target, tail_only;
  for (ScidiveEngine* engine : {&source, &target, &tail_only}) engine->set_rules(rules);
  const EventTypeMask evidence =
      event_mask(EventType::kSipMalformed, EventType::kAccUnmatched,
                 EventType::kAccBilledPartyAbsent, EventType::kRtpUnexpectedSource);
  const size_t split = replay_with_handoff(capture, evidence, 1, source, target);
  ASSERT_EQ(split, 1u);
  EXPECT_EQ(source.alerts().count_for_rule("billing-fraud"), 0u);
  ASSERT_EQ(target.alerts().count_for_rule("billing-fraud"), 1u);
  EXPECT_EQ(target.alerts().alerts()[0].message,
            "billing fraud suspected: 2 independent conditions violated "
            "(SipMalformed, AccUnmatched)");

  // Control: the tail alone holds one kind of evidence.
  tail_only.on_packet(capture[1]);
  EXPECT_EQ(tail_only.alerts().count_for_rule("billing-fraud"), 0u);
}

/// Move `aor`'s principal record from `source` to `target`, the way fleet
/// churn hands a principal to its slot's new owner.
void move_principal(ScidiveEngine& source, ScidiveEngine& target, const std::string& aor) {
  ASSERT_TRUE(source.has_principal(aor));
  ASSERT_FALSE(target.has_principal(aor));
  TrailManager::ExtractedPrincipal moved = source.extract_principal(aor);
  ASSERT_TRUE(moved.valid());
  target.install_principal(std::move(moved));
  EXPECT_FALSE(source.has_principal(aor));
  EXPECT_TRUE(target.has_principal(aor));
}

TEST(Rebalance, PrincipalStateCrossesMigrationMidAttack) {
  // fake-im: bob's messages come from .2 on the source; his principal
  // record moves; a forged message from .66 reaches the target a second
  // later. Only the moved sender history can call that a forgery.
  using testing::ep;
  using testing::sip_packet;
  const pkt::Endpoint proxy = ep(100, 5060);
  auto message = [&](const std::string& call_id, pkt::Endpoint from, SimTime time) {
    return sip_packet("MESSAGE sip:alice@lab.net SIP/2.0", "bob@lab.net", call_id, "MESSAGE",
                      time, from, proxy);
  };
  {
    ScidiveEngine source, target, tail_only;
    source.on_packet(message("im-1", ep(2, 5060), sec(1)));
    source.on_packet(message("im-2", ep(2, 5060), sec(2)));
    move_principal(source, target, "bob@lab.net");
    target.on_packet(message("im-3", ep(66, 5060), sec(3)));
    tail_only.on_packet(message("im-3", ep(66, 5060), sec(3)));
    EXPECT_EQ(source.alerts().count(), 0u);
    EXPECT_EQ(target.alerts().count_for_rule("fake-im"), 1u);
    EXPECT_EQ(target.alerts().count(), 1u);
    // Control: without the history the forged message is a first message.
    EXPECT_EQ(tail_only.alerts().count(), 0u);
  }

  // spit-graylist: twenty call attempts by one caller inside a minute, ten
  // on each side of the move. The source graylists the caller at the
  // eighth; the moved record still says so, and the target stays quiet
  // where a fresh count would reach eight again and graylist twice.
  EngineConfig config;
  config.enforce.mode = EnforcementMode::kPassive;
  config.rules.spit_graylist = true;
  ScidiveEngine source(config), target(config), tail_only(config);
  auto invite = [&](int i) {
    return sip_packet("INVITE sip:victim@lab.net SIP/2.0", "spammer@lab.net",
                      "spit-" + std::to_string(i), "INVITE", sec(1) + msec(100 * i), ep(66, 5060),
                      proxy);
  };
  for (int i = 0; i < 10; ++i) source.on_packet(invite(i));
  ASSERT_EQ(source.alerts().count_for_rule("spit-graylist"), 1u);
  move_principal(source, target, "spammer@lab.net");
  for (int i = 10; i < 20; ++i) {
    target.on_packet(invite(i));
    tail_only.on_packet(invite(i));
  }
  EXPECT_EQ(target.alerts().count_for_rule("spit-graylist"), 0u);
  EXPECT_EQ(source.verdicts().count() + target.verdicts().count(), 1u) << "graylisted once";
  // Control: a fresh count over the same ten attempts graylists again.
  EXPECT_EQ(tail_only.alerts().count_for_rule("spit-graylist"), 1u);
}

}  // namespace
}  // namespace scidive::core
