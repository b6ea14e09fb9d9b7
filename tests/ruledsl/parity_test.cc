// The compiled `.sdr` default ruleset against the hand-written C++ rules it
// replaced. The goldens under tests/ruledsl/data/ were recorded from those
// C++ rules on the same captures, so "byte-identical" here means the same
// alerts, ledger records and verdicts as before the port. On top of that,
// the compiled rules stay topology-invariant under ShardedEngine and atomic
// under hot reload (an invalid ruleset never touches the running one; a
// valid mid-stream swap loses and double-matches nothing), and keep the
// established-flow fast path engaged exactly when no rule wants steady
// media.
//
// Regenerate the goldens only for an intended detection change:
//
//   SCIDIVE_REGEN_GOLDEN=1 ./scidive_tests --gtest_filter='RuledslParity.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "capture/carrier_mix.h"
#include "capture/packet_source.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "obs/alert_ledger.h"
#include "obs/metrics.h"
#include "rtp/rtp.h"
#include "ruledsl/loader.h"
#include "scidive/engine.h"
#include "scidive/rules.h"
#include "scidive/sharded_engine.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::ruledsl {
namespace {

using core::EngineConfig;
using core::ScidiveEngine;
using core::ShardedEngine;
using core::ShardedEngineConfig;
using voip::testing::VoipFixture;

#ifndef SCIDIVE_RULESET_DIR
#define SCIDIVE_RULESET_DIR "src/scidive/rules"
#endif
#ifndef SCIDIVE_RULEDSL_DATA_DIR
#define SCIDIVE_RULEDSL_DATA_DIR "tests/ruledsl/data"
#endif

/// One rule file of the default ruleset, for the file-based reload paths.
std::string rule_file(const char* name) { return std::string(SCIDIVE_RULESET_DIR) + "/" + name; }

CompiledRuleset default_ruleset() {
  auto compiled = compile_default_ruleset();
  EXPECT_TRUE(compiled.ok()) << compiled.error().to_string();
  return compiled.ok() ? compiled.value() : CompiledRuleset{};
}

/// Full alert identity, not just the (rule, session) multiset: severity,
/// timestamp and the rendered message all participate in "byte-identical".
std::vector<std::string> alert_strings(const ScidiveEngine& engine) {
  std::vector<std::string> out;
  for (const core::Alert& a : engine.alerts().alerts()) out.push_back(a.to_string());
  return out;
}

/// Every deterministic AlertRecord field (wall_unix_usec is wall clock and
/// legitimately differs between runs).
std::vector<std::string> ledger_strings(const ScidiveEngine& engine) {
  std::vector<std::string> out;
  for (const obs::AlertRecord& r : engine.ledger().records()) {
    out.push_back(r.alert.to_string() + "|" +
                  std::string(core::event_type_name(r.cause_type)) + "|" + r.cause_detail +
                  "|" + std::to_string(r.cause_value) + "|" + r.cause_endpoint.to_string() +
                  "|" + r.trail.to_string() + "|" + std::to_string(r.sim_time));
  }
  return out;
}

std::vector<std::string> verdict_strings(const ScidiveEngine& engine) {
  std::vector<std::string> out;
  for (const core::Verdict& v : engine.verdicts().verdicts()) {
    out.push_back(v.rule + "|" + std::string(core::verdict_action_name(v.action)) + "|" +
                  v.session + "|" + v.aor + "|" + v.endpoint.to_string() + "|" +
                  std::to_string(v.time) + "|" + v.message);
  }
  return out;
}

/// What the golden files pin: every alert, ledger record and verdict, and
/// the per-packet decision totals when enforcement is on.
std::string detection_record(const ScidiveEngine& engine, bool enforcing) {
  std::string out;
  for (const std::string& s : alert_strings(engine)) out += "alert " + s + "\n";
  for (const std::string& s : ledger_strings(engine)) out += "ledger " + s + "\n";
  for (const std::string& s : verdict_strings(engine)) out += "verdict " + s + "\n";
  if (enforcing) {
    for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
      const auto action = static_cast<core::VerdictAction>(a);
      out += "decisions " + std::string(core::verdict_action_name(action)) + " " +
             std::to_string(engine.decisions(action)) + "\n";
    }
  }
  return out;
}

/// Compares `got` with tests/ruledsl/data/<name>.golden. The goldens were
/// recorded from the hand-written C++ rules the `.sdr` rules replaced, so a
/// difference is a change in detection. SCIDIVE_REGEN_GOLDEN=1 rewrites the
/// file instead.
void expect_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(SCIDIVE_RULEDSL_DATA_DIR) + "/" + name + ".golden";
  if (std::getenv("SCIDIVE_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << name << " differs from " << path;
}

struct CaptureFixture : VoipFixture {
  std::vector<pkt::Packet> capture;

  explicit CaptureFixture(bool require_auth = false) : VoipFixture(require_auth) {
    net.add_tap([this](const pkt::Packet& packet) { capture.push_back(packet); });
  }
};

struct Scenario {
  const char* rule;  // which rule the capture must trigger
  std::vector<pkt::Packet> capture;
  std::set<pkt::Ipv4Address> home;
};

Scenario bye_attack_scenario() {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  return {"bye-attack", std::move(f.capture), {f.a_host.address()}};
}

Scenario fake_im_scenario() {
  CaptureFixture f;
  f.register_both();
  f.b.add_contact("alice@lab.net", f.a.sip_endpoint());
  f.b.send_im("alice", "hi, this is really bob");
  f.sim.run_until(f.sim.now() + sec(1));
  voip::FakeImAttacker attacker(f.attacker_host);
  attacker.send(f.a.sip_endpoint(), "bob@lab.net", "wire money please");
  f.sim.run_until(f.sim.now() + sec(1));
  return {"fake-im", std::move(f.capture), {f.a_host.address()}};
}

Scenario call_hijack_scenario() {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::CallHijacker hijacker(f.attacker_host);
  hijacker.attack(*sniffer.latest_active_call(), {f.attacker_host.address(), 17000},
                  /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  return {"call-hijack", std::move(f.capture), {f.a_host.address()}};
}

Scenario rtp_attack_scenario() {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::RtpInjector injector(f.attacker_host, /*seed=*/77);
  pkt::Endpoint victim{f.a_host.address(), f.a.config().rtp_port};
  if (auto call = sniffer.latest_active_call();
      call && call->caller_media.addr == f.a_host.address()) {
    victim = call->caller_media;
  }
  injector.start(victim, {.count = 30});
  f.sim.run_until(f.sim.now() + sec(1));
  return {"rtp-attack", std::move(f.capture), {f.a_host.address()}};
}

std::vector<Scenario> table1_scenarios() {
  std::vector<Scenario> out;
  out.push_back(bye_attack_scenario());
  out.push_back(fake_im_scenario());
  out.push_back(call_hijack_scenario());
  out.push_back(rtp_attack_scenario());
  return out;
}

Scenario register_flood_scenario() {
  CaptureFixture f(/*require_auth=*/true);
  voip::RegisterFlooder flooder(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  flooder.start(20, msec(100));
  f.sim.run_until(sec(10));
  return {"register-flood", std::move(f.capture), {f.proxy_host.address()}};
}

Scenario password_guess_scenario() {
  CaptureFixture f(/*require_auth=*/true);
  voip::PasswordGuesser guesser(f.attacker_host, {f.proxy_host.address(), 5060}, "alice",
                                "lab.net");
  guesser.start({"guess1", "guess2", "guess3", "guess4", "guess5"});
  f.sim.run_until(sec(10));
  return {"password-guess", std::move(f.capture), {f.proxy_host.address()}};
}

Scenario rtcp_bye_scenario() {
  CaptureFixture f;
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::RtcpByeForger forger(f.attacker_host);
  forger.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  return {"rtcp-bye-attack", std::move(f.capture), {f.a_host.address()}};
}

Scenario billing_fraud_scenario() {
  CaptureFixture f;
  f.proxy.set_billing_identity_bug(true);
  f.register_both();
  voip::BillingFraudster fraudster(f.attacker_host, {f.proxy_host.address(), 5060}, "lab.net");
  fraudster.place_fraudulent_call("bob", "alice@lab.net");
  f.sim.run_until(f.sim.now() + sec(3));
  return {"billing-fraud", std::move(f.capture), {f.proxy_host.address(), f.db_host.address()}};
}

EngineConfig replay_config(const std::set<pkt::Ipv4Address>& home) {
  EngineConfig config;
  config.home_addresses = home;
  config.obs.time_stages = false;
  return config;
}

ScidiveEngine make_engine(const Scenario& s, std::vector<core::RulePtr> rules) {
  ScidiveEngine engine(replay_config(s.home));
  engine.set_rules(std::move(rules));
  return engine;
}

/// Runs a scenario's capture through an engine with the default ruleset and
/// checks the result against the scenario's golden.
void expect_scenario_golden(const std::string& golden, const Scenario& s) {
  ScidiveEngine engine(replay_config(s.home));
  for (const pkt::Packet& p : s.capture) engine.on_packet(p);
  EXPECT_GE(engine.alerts().count_for_rule(s.rule), 1u) << s.rule << ": scenario did not alert";
  expect_golden(golden, detection_record(engine, /*enforcing=*/false));
}

/// A carrier mix with a two-bot spam cohort.
std::vector<pkt::Packet> spit_mix_capture() {
  capture::CarrierMixConfig mix;
  mix.seed = 0x5b17;
  mix.provisioned_users = 100;
  mix.call_rate_hz = 3.0;
  mix.spit_callers = 2;
  mix.spit_call_rate_hz = 6.0;
  mix.spit_hold = msec(300);
  mix.max_packets = 2500;
  capture::CarrierMixSource source(mix);
  return capture::read_all(source);
}

TEST(RuledslParity, FourAttacksByteIdenticalAlertsAndLedger) {
  for (const Scenario& s : table1_scenarios()) expect_scenario_golden(s.rule, s);
}

TEST(RuledslParity, RegisterFloodMatchesCppGolden) {
  expect_scenario_golden("register-flood", register_flood_scenario());
}

TEST(RuledslParity, PasswordGuessMatchesCppGolden) {
  expect_scenario_golden("password-guess", password_guess_scenario());
}

TEST(RuledslParity, ForgedRtcpByeMatchesCppGolden) {
  expect_scenario_golden("rtcp-bye-attack", rtcp_bye_scenario());
}

TEST(RuledslParity, BillingFraudMatchesCppGolden) {
  expect_scenario_golden("billing-fraud", billing_fraud_scenario());
}

TEST(RuledslParity, AdversarialStreamMatchesCppGolden) {
  // The differential suites' stream, which alerts nothing, and a longer cut
  // of it whose mutations raise rtp-attack and register-flood alerts.
  ScidiveEngine quiet(replay_config({}));
  for (const pkt::Packet& p : fuzz::adversarial_stream(0xd51d51d5)) quiet.on_packet(p);
  expect_golden("adversarial", detection_record(quiet, /*enforcing=*/false));

  fuzz::StreamConfig longer;
  longer.benign_calls = 10;
  longer.mutated = 4000;
  ScidiveEngine engine(replay_config({}));
  for (const pkt::Packet& p : fuzz::adversarial_stream(0xd51d51d5, longer)) engine.on_packet(p);
  EXPECT_GE(engine.alerts().count_for_rule("register-flood"), 1u);
  expect_golden("adversarial-4k", detection_record(engine, /*enforcing=*/false));
}

TEST(RuledslParity, SpitGraylistDslMatchesCppAlertsAndVerdicts) {
  // On a carrier mix with a spam cohort, the compiled spit-graylist rule
  // (and the rest of the default ruleset beside it) reproduces what the
  // hand-written rules did: alerts, ledger, verdicts (action, principal,
  // message) and the per-packet decision totals they induce.
  EngineConfig config = replay_config({});
  config.enforce.mode = core::EnforcementMode::kPassive;
  config.rules.spit_graylist = true;
  ScidiveEngine engine(config);
  for (const pkt::Packet& p : spit_mix_capture()) engine.on_packet(p);
  ASSERT_GE(engine.verdicts().count(), 2u) << "both spammers should be graylisted";
  expect_golden("spit-mix", detection_record(engine, /*enforcing=*/true));
}

// --- the rule files themselves (ctest twin of the CI rulec step) ---

TEST(RuledslParity, EveryShippedRulesetCompiles) {
  for (const char* file :
       {"bye_attack.sdr", "call_hijack.sdr", "fake_im.sdr", "rtp_attack.sdr",
        "rtcp_bye_attack.sdr", "billing_fraud.sdr", "register_flood.sdr",
        "password_guess.sdr", "spit_graylist.sdr"}) {
    auto one = compile_ruleset_file(rule_file(file));
    EXPECT_TRUE(one.ok()) << file << ": " << (one.ok() ? "" : one.error().to_string());
  }
  CompiledRuleset all = default_ruleset();
  EXPECT_EQ(all.rules.size(), 8u);
  EXPECT_FALSE(all.dump().empty());
  core::RulesConfig with_spit;
  with_spit.spit_graylist = true;
  auto prevention = compile_default_ruleset(with_spit);
  ASSERT_TRUE(prevention.ok()) << prevention.error().to_string();
  EXPECT_EQ(prevention.value().rules.size(), 9u);
}

// --- sharded parity: compiled rules are topology-invariant ---

TEST(RuledslParity, DifferentialHoldsWithDslRulesOnAttackCaptures) {
  for (const Scenario& s : table1_scenarios()) {
    fuzz::DifferentialConfig config;
    config.engine.home_addresses = s.home;
    fuzz::DifferentialReport report = fuzz::run_differential(s.capture, config);
    EXPECT_TRUE(report.ok()) << s.rule << ": " << report.to_string();
    EXPECT_GE(report.baseline_alerts, 1u) << s.rule;
  }
}

TEST(RuledslParity, DifferentialHoldsWithDslRulesOnAdversarialStream) {
  fuzz::DifferentialReport report =
      fuzz::run_differential(fuzz::adversarial_stream(0xd51d51d5), fuzz::DifferentialConfig{});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RuledslParity, DifferentialHoldsWithDslRulesOnAlertingAdversarialStream) {
  fuzz::DifferentialReport report = fuzz::run_differential(
      fuzz::adversarial_stream(0xd51d51d5, fuzz::alerting_stream_config()),
      fuzz::DifferentialConfig{});
  ASSERT_GT(report.baseline_alerts, 0u) << "parity over an empty alert set proves little";
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// The alerts a golden pins, as a multiset.
std::multiset<std::string> golden_alerts(const std::string& name) {
  std::ifstream in(std::string(SCIDIVE_RULEDSL_DATA_DIR) + "/" + name + ".golden");
  std::multiset<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("alert ")) out.insert(line.substr(6));
  }
  return out;
}

TEST(RuledslParity, ShardedDslMatchesSingleCppMultiset) {
  // Cross pairing: N-shard engines running the compiled rules against what
  // the single-threaded C++ originals raised — the full "indistinguishable
  // to the engine" claim.
  for (const Scenario& s : table1_scenarios()) {
    const std::multiset<std::string> want = golden_alerts(s.rule);
    ASSERT_FALSE(want.empty()) << s.rule;
    for (size_t shards : {2u, 4u}) {
      ShardedEngineConfig sc;
      sc.engine = replay_config(s.home);
      sc.num_shards = shards;
      ShardedEngine sharded(sc);
      for (const pkt::Packet& p : s.capture) sharded.on_packet(p);
      sharded.flush();
      std::multiset<std::string> got;
      for (const core::Alert& a : sharded.merged_alerts()) got.insert(a.to_string());
      EXPECT_EQ(got, want) << s.rule << " @ " << shards << " shards";
    }
  }
}

// --- hot reload ---

TEST(RuledslParity, HotReloadMidStreamLosesAndDoublesNothing) {
  // Swapping in the same ruleset between packets must leave the alert
  // stream byte-identical to an undisturbed run: no event is lost to the
  // swap and none is matched twice. (The bye-attack capture raises only
  // alerts whose cross-packet state lives in the event generator, so a swap
  // is semantically a no-op — which is exactly what makes the comparison
  // exact.)
  const CompiledRuleset ruleset = default_ruleset();
  Scenario s = bye_attack_scenario();

  ScidiveEngine baseline = make_engine(s, make_rules(ruleset));
  for (const pkt::Packet& p : s.capture) baseline.on_packet(p);
  ASSERT_GE(baseline.alerts().count_for_rule("bye-attack"), 1u);

  ScidiveEngine reloaded = make_engine(s, make_rules(ruleset));
  for (size_t i = 0; i < s.capture.size(); ++i) {
    if (i % 7 == 3) reloaded.set_rules(make_rules(ruleset));  // frequent swaps
    reloaded.on_packet(s.capture[i]);
  }
  EXPECT_EQ(alert_strings(reloaded), alert_strings(baseline));

  // Sharded: reload between flush boundaries mid-stream.
  ShardedEngineConfig sc;
  sc.engine = replay_config(s.home);
  sc.num_shards = 4;
  ShardedEngine sharded(sc);
  sharded.set_rules([&](size_t) { return make_rules(ruleset); });
  for (size_t i = 0; i < s.capture.size(); ++i) {
    if (i == s.capture.size() / 2) {
      sharded.set_rules([&](size_t) { return make_rules(ruleset); });
    }
    sharded.on_packet(s.capture[i]);
  }
  sharded.flush();
  std::multiset<std::string> got, want;
  for (const core::Alert& a : sharded.merged_alerts()) got.insert(a.to_string());
  for (const core::Alert& a : baseline.alerts().alerts()) want.insert(a.to_string());
  EXPECT_EQ(got, want);
}

TEST(RuledslParity, InvalidReloadLeavesRunningRulesetUntouched) {
  const CompiledRuleset ruleset = default_ruleset();
  Scenario s = bye_attack_scenario();

  // A file whose first rule is valid and second is not: nothing may load.
  const std::string bad_path = ::testing::TempDir() + "scidive_bad_ruleset.sdr";
  {
    std::ofstream out(bad_path, std::ios::trunc);
    out << "rule half-valid { on RtpAfterBye { alert info \"ok\"; } }\n"
        << "rule broken { on RtpAfterBye { set ghost = 1; } }\n";
  }

  ScidiveEngine engine = make_engine(s, make_rules(ruleset));
  ASSERT_EQ(engine.rule_count(), 8u);

  auto bad = reload_from_file(engine, bad_path);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.error().message.empty());
  EXPECT_EQ(engine.rule_count(), 8u) << "failed reload must not touch the ruleset";

  auto missing = reload_from_file(engine, bad_path + ".does-not-exist");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(engine.rule_count(), 8u);

  // The untouched rules still detect the attack...
  for (const pkt::Packet& p : s.capture) engine.on_packet(p);
  EXPECT_GE(engine.alerts().count_for_rule("bye-attack"), 1u);

  // ...and the reload accounting saw exactly the two failures.
  obs::Snapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.counter_value("scidive_ruleset_reloads_total", {{"result", "error"}}), 2u);
  EXPECT_EQ(snap.counter_value("scidive_ruleset_reloads_total", {{"result", "ok"}}), 0u);

  // A valid reload flips the ok counter and swaps the live set.
  auto good = reload_from_file(engine, rule_file("bye_attack.sdr"));
  EXPECT_TRUE(good.ok()) << good.error().to_string();
  EXPECT_EQ(engine.rule_count(), 1u);
  snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.counter_value("scidive_ruleset_reloads_total", {{"result", "ok"}}), 1u);
  std::remove(bad_path.c_str());
}

TEST(RuledslParity, ShardedInvalidReloadLeavesRulesUntouched) {
  const CompiledRuleset ruleset = default_ruleset();
  ShardedEngineConfig sc;
  sc.num_shards = 2;
  sc.engine.obs.time_stages = false;
  ShardedEngine sharded(sc);
  sharded.set_rules([&](size_t) { return make_rules(ruleset); });

  auto bad = reload_from_file(sharded, rule_file("nope.sdr"));
  EXPECT_FALSE(bad.ok());
  obs::Snapshot snap = sharded.frontend_metrics().snapshot();
  EXPECT_EQ(snap.counter_value("scidive_ruleset_reloads_total", {{"result", "error"}}), 1u);

  auto good = reload_from_file(sharded, rule_file("bye_attack.sdr"));
  EXPECT_TRUE(good.ok()) << good.error().to_string();
  snap = sharded.frontend_metrics().snapshot();
  EXPECT_EQ(snap.counter_value("scidive_ruleset_reloads_total", {{"result", "ok"}}), 1u);
}

// --- established-flow fast path × DSL rulesets (invalidation edges) -------

/// A synthetic in-order RTP flow between even ports — exactly the
/// steady-state media the fast path caches once the flow stops producing
/// events. Timestamps advance at the nominal 8 kHz / 20 ms cadence so the
/// jitter estimator stays flat.
std::vector<pkt::Packet> steady_rtp(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc,
                                    uint16_t first_seq, size_t count, SimTime start) {
  std::vector<pkt::Packet> out;
  const Bytes payload(160, 0xd5);
  for (size_t i = 0; i < count; ++i) {
    rtp::RtpHeader h;
    h.sequence = static_cast<uint16_t>(first_seq + i);
    h.timestamp = static_cast<uint32_t>(160 * i);
    h.ssrc = ssrc;
    pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, payload));
    p.timestamp = start + msec(20) * static_cast<SimTime>(i);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(RuledslParity, FastpathHotReloadMidStreamStaysByteIdentical) {
  // Swapping rulesets mid-stream must leave the alert stream byte-identical
  // to both an undisturbed fastpath-on run and a fastpath-off run. The flow
  // records hold no rule state, so a swap to an equally uninterested
  // ruleset leaves the bypass engaged throughout.
  const CompiledRuleset ruleset = default_ruleset();
  Scenario s = bye_attack_scenario();

  ScidiveEngine baseline = make_engine(s, make_rules(ruleset));
  for (const pkt::Packet& p : s.capture) baseline.on_packet(p);
  ASSERT_GE(baseline.alerts().count_for_rule("bye-attack"), 1u);
  EXPECT_GT(baseline.fastpath_bypassed(), 0u)
      << "the shipped DSL rules must not opt steady media out of the bypass";

  EngineConfig off_config = replay_config(s.home);
  off_config.fastpath.enabled = false;
  ScidiveEngine off(off_config);
  off.set_rules(make_rules(ruleset));
  for (const pkt::Packet& p : s.capture) off.on_packet(p);
  EXPECT_EQ(off.fastpath_bypassed(), 0u);
  EXPECT_EQ(alert_strings(baseline), alert_strings(off));
  EXPECT_EQ(ledger_strings(baseline), ledger_strings(off));

  ScidiveEngine reloaded = make_engine(s, make_rules(ruleset));
  for (size_t i = 0; i < s.capture.size(); ++i) {
    if (i % 7 == 3) reloaded.set_rules(make_rules(ruleset));  // frequent swaps
    reloaded.on_packet(s.capture[i]);
  }
  EXPECT_EQ(alert_strings(reloaded), alert_strings(baseline));
  EXPECT_EQ(ledger_strings(reloaded), ledger_strings(baseline));
  EXPECT_EQ(reloaded.fastpath_bypassed(), baseline.fastpath_bypassed())
      << "swaps must not take flows off the bypass";
}

TEST(RuledslParity, FastpathDisabledByRtpPacketSeenSubscriptionUntilReload) {
  // A DSL rule with an RtpPacketSeen handler declares steady-state media
  // interest (the compiled-program static analysis), which must keep every
  // flow on the full pipeline; hot-reloading to a ruleset without that
  // interest must re-arm the bypass mid-stream — byte-identically to a
  // fastpath-off twin driven through the same reload.
  // The RtpPacketSeen handler is what declares the interest (per-packet
  // events are off by default, so it never actually fires here); the
  // RtpStreamStarted handler proves the rule is live on the slow path.
  auto tap = compile_ruleset_text(R"sdr(rule media-tap {
  on RtpPacketSeen {
    alert info "media packet observed";
  }
  on RtpStreamStarted {
    alert info "talker appeared";
  }
})sdr");
  ASSERT_TRUE(tap.ok()) << tap.error().to_string();
  ASSERT_TRUE(make_rules(tap.value()).front()->media_steady_state_interest());

  const pkt::Endpoint media_src{pkt::Ipv4Address(10, 0, 0, 1), 16384};
  const pkt::Endpoint media_dst{pkt::Ipv4Address(10, 0, 0, 2), 16386};
  const std::vector<pkt::Packet> stream =
      steady_rtp(media_src, media_dst, 0xabc, 100, 60, msec(10));
  const std::string rtp_rules = rule_file("rtp_attack.sdr");

  auto run = [&](bool fastpath_enabled) {
    EngineConfig config = replay_config({media_dst.addr});
    config.fastpath.enabled = fastpath_enabled;
    ScidiveEngine engine(config);
    engine.set_rules(make_rules(tap.value()));
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == 30) {
        // While media-tap is live the bypass must never have engaged.
        EXPECT_EQ(engine.fastpath_bypassed(), 0u);
        auto swapped = reload_from_file(engine, rtp_rules);
        EXPECT_TRUE(swapped.ok()) << swapped.error().to_string();
      }
      engine.on_packet(stream[i]);
    }
    return engine;
  };

  ScidiveEngine on = run(/*fastpath_enabled=*/true);
  ScidiveEngine off = run(/*fastpath_enabled=*/false);
  EXPECT_GT(on.fastpath_bypassed(), 20u) << "reload away from media-tap re-arms the bypass";
  EXPECT_EQ(off.fastpath_bypassed(), 0u);
  EXPECT_EQ(alert_strings(on), alert_strings(off));
  EXPECT_GE(on.alerts().count_for_rule("media-tap"), 1u)
      << "the interested rule must have seen the flow on the slow path";
}

TEST(RuledslParity, FastpathSeqJumpFallsBackByteIdentical) {
  // An out-of-window sequence jump on a bypassing flow is stepped in place:
  // the bypass's step sees the same last sequence the full pipeline would
  // and emits the same RtpSeqJump the fastpath-off engine does, and the
  // event's dispatch raises the same alert.
  const pkt::Endpoint media_src{pkt::Ipv4Address(10, 0, 0, 1), 16384};
  const pkt::Endpoint media_dst{pkt::Ipv4Address(10, 0, 0, 2), 16386};
  std::vector<pkt::Packet> stream =
      steady_rtp(media_src, media_dst, 0xabc, 100, 60, msec(10));
  for (pkt::Packet& p :
       steady_rtp(media_src, media_dst, 0xabc, 100 + 60 + 500, 20, msec(10 + 20 * 60))) {
    stream.push_back(std::move(p));
  }

  const CompiledRuleset ruleset = default_ruleset();
  ScidiveEngine on(replay_config({media_dst.addr}));
  on.set_rules(make_rules(ruleset));
  EngineConfig off_config = replay_config({media_dst.addr});
  off_config.fastpath.enabled = false;
  ScidiveEngine off(off_config);
  off.set_rules(make_rules(ruleset));
  for (const pkt::Packet& p : stream) {
    on.on_packet(p);
    off.on_packet(p);
  }

  EXPECT_GE(on.alerts().count_for_rule("rtp-attack"), 1u) << "the jump must still alert";
  EXPECT_EQ(alert_strings(on), alert_strings(off));
  EXPECT_EQ(ledger_strings(on), ledger_strings(off));
  EXPECT_EQ(on.fastpath_bypassed(), stream.size() - 1)
      << "only the flow's first packet takes the full pipeline, the jump included";
}

TEST(RuledslParity, FastpathSsrcChangeFallsBackAndRecaches) {
  // A mid-flow SSRC change: the flow record is keyed by endpoints and the
  // RTP state the step reads is per endpoint, so the new talker steps the
  // same record on the bypass — with the alert stream (here: silence)
  // identical to the fastpath-off engine.
  const pkt::Endpoint media_src{pkt::Ipv4Address(10, 0, 0, 1), 16384};
  const pkt::Endpoint media_dst{pkt::Ipv4Address(10, 0, 0, 2), 16386};
  std::vector<pkt::Packet> stream =
      steady_rtp(media_src, media_dst, 0xabc, 100, 60, msec(10));
  for (pkt::Packet& p :
       steady_rtp(media_src, media_dst, 0xdef, 100 + 60, 30, msec(10 + 20 * 60))) {
    stream.push_back(std::move(p));
  }

  const CompiledRuleset ruleset = default_ruleset();
  ScidiveEngine on(replay_config({media_dst.addr}));
  on.set_rules(make_rules(ruleset));
  EngineConfig off_config = replay_config({media_dst.addr});
  off_config.fastpath.enabled = false;
  ScidiveEngine off(off_config);
  off.set_rules(make_rules(ruleset));
  uint64_t bypassed_before_change = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == 60) bypassed_before_change = on.fastpath_bypassed();
    on.on_packet(stream[i]);
    off.on_packet(stream[i]);
  }

  EXPECT_EQ(alert_strings(on), alert_strings(off));
  EXPECT_EQ(ledger_strings(on), ledger_strings(off));
  EXPECT_GT(bypassed_before_change, 40u);
  EXPECT_EQ(on.fastpath_bypassed(), stream.size() - 1)
      << "the SSRC change keeps the flow on the bypass";
}

}  // namespace
}  // namespace scidive::ruledsl
