// The topology oracle under adversarial input: identical streams of benign
// calls, mutated packets, fragment trains and garbage must produce identical
// alert multisets and detection metrics from the fast-path-off baseline and
// from every topology, ShardedEngines at every shard count under both
// routings included. This is the strongest statement the harness makes —
// malformed input may be rejected, but rejection must be
// topology-invariant.
#include "fuzz/differential.h"

#include <gtest/gtest.h>

#include "capture/test_streams.h"
#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "scidive/distiller.h"
#include "scidive/rules.h"
#include "scidive/shard_router.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::fuzz {
namespace {

using capture::testing::spit_mix_stream;

TEST(Differential, AdversarialStreamAcrossShardCounts) {
  StreamConfig stream_config;
  const std::vector<pkt::Packet> stream = adversarial_stream(0xd1ffe7e1, stream_config);
  ASSERT_GT(stream.size(), 100u);

  DifferentialReport report = run_differential(stream);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.packets, stream.size());
}

TEST(Differential, AlertingAdversarialStreamAcrossShardCounts) {
  const std::vector<pkt::Packet> stream = adversarial_stream(0xd1ffe7e1, alerting_stream_config());
  DifferentialReport report = run_differential(stream);
  ASSERT_GT(report.baseline_alerts, 0u) << "parity over an empty alert set proves little";
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.packets, stream.size());
}

TEST(Differential, BatchSizeSweepAcrossShardCounts) {
  // The oracle must hold whatever batch each worker wakeup drains (up to
  // one ring lap, so it varies with occupancy): batching changes the
  // cadence of ring drains, never the per-shard processing order.
  StreamConfig stream_config;
  const std::vector<pkt::Packet> stream = adversarial_stream(0xba7c4ed, stream_config);
  DifferentialConfig config;
  config.topologies.clear();
  for (size_t workers : {1, 2, 4, 8}) config.topologies.push_back(sharded_on(workers));
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Differential, AlertingBatchSizeSweepAcrossShardCounts) {
  DifferentialConfig config;
  config.topologies.clear();
  for (size_t workers : {1, 2, 4, 8}) config.topologies.push_back(sharded_on(workers));
  DifferentialReport report =
      run_differential(adversarial_stream(0xba7c4ed, alerting_stream_config()), config);
  ASSERT_GT(report.baseline_alerts, 0u);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Differential, SecondSeedAcrossShardCounts) {
  StreamConfig config;
  config.mutated = 200;
  config.fragment_trains = 20;
  config.garbage = 40;
  DifferentialReport report = run_differential(adversarial_stream(0x5eed0002, config));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Differential, AlertingSecondSeedAcrossShardCounts) {
  DifferentialReport report =
      run_differential(adversarial_stream(0x5eed0002, alerting_stream_config()));
  ASSERT_GT(report.baseline_alerts, 0u);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Differential, RealAttackCaptureWithMutationsInterleaved) {
  // A recorded BYE-attack scenario (real dialogs, real alerts) with mutated
  // noise spliced between the packets: the oracle must hold while actual
  // detections fire, not only on streams that alert nothing.
  voip::testing::VoipFixture f;
  std::vector<pkt::Packet> capture;
  f.net.add_tap([&](const pkt::Packet& p) { capture.push_back(p); });
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));
  ASSERT_FALSE(capture.empty());

  Mutator m(0xa77ac4);
  const std::vector<Bytes> seeds = datagram_seeds();
  std::vector<pkt::Packet> stream;
  for (const pkt::Packet& p : capture) {
    stream.push_back(p);
    if (m.rng().chance(0.2)) {
      pkt::Packet noise;
      noise.data = seeds[static_cast<size_t>(
          m.rng().uniform_int(0, static_cast<int64_t>(seeds.size()) - 1))];
      noise = m.mutate_packet(noise);
      noise.timestamp = p.timestamp;
      stream.push_back(std::move(noise));
    }
  }

  DifferentialConfig config;
  config.topologies = {FastPath{}, sharded_on(2), sharded_on(4), by_caller(sharded_on(4))};
  config.engine.home_addresses = {f.a_host.address()};
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_alerts, 1u) << "scenario should alert";
}

/// A copy of the SIP datagram `packet` under another Call-ID, whose UDP
/// checksum is left stale: every distiller rejects it as undecodable.
pkt::Packet stale_checksum_copy(const pkt::Packet& packet, std::string_view call_id,
                                std::string_view decoy) {
  auto udp = pkt::parse_udp_packet(packet.data);
  EXPECT_TRUE(udp.ok());
  std::string text(reinterpret_cast<const char*>(udp.value().payload.data()),
                   udp.value().payload.size());
  const size_t at = text.find(call_id);
  EXPECT_NE(at, std::string::npos);
  text.replace(at, call_id.size(), decoy);
  pkt::Packet copy = pkt::make_udp_packet(udp.value().source(), udp.value().destination(),
                                          Bytes(text.begin(), text.end()), /*ip_id=*/4242);
  copy.timestamp = packet.timestamp;
  const size_t checksum = udp.value().ip.header_length + 6;
  copy.data[checksum] ^= 0x5a;
  if (copy.data[checksum] == 0 && copy.data[checksum + 1] == 0) copy.data[checksum + 1] = 1;
  return copy;
}

TEST(Differential, StaleChecksumSignalingTeachesTheRouterNothing) {
  // A BYE attack whose stream carries, just before the forged BYE, copies
  // of the call's INVITE and 200 OK under a decoy Call-ID with a stale UDP
  // checksum. Every engine drops them as undecodable; a router that still
  // read them would bind the call's media endpoints to the decoy's shard,
  // and the orphan RTP after the BYE — the attack's evidence — would miss
  // the shard holding the call.
  voip::testing::VoipFixture f;
  std::vector<pkt::Packet> capture;
  f.net.add_tap([&](const pkt::Packet& p) { capture.push_back(p); });
  voip::CallSniffer sniffer;
  f.net.add_tap(sniffer.tap());
  f.establish_call(sec(3));
  voip::ByeAttacker attacker(f.attacker_host);
  attacker.attack(*sniffer.latest_active_call(), /*attack_caller=*/true);
  f.sim.run_until(f.sim.now() + sec(1));

  core::Distiller distiller;
  std::string call_id;
  const pkt::Packet* offer = nullptr;   // the INVITE, naming the caller's media
  const pkt::Packet* answer = nullptr;  // the 200 OK, naming the callee's
  size_t bye_at = capture.size();
  for (size_t i = 0; i < capture.size() && bye_at == capture.size(); ++i) {
    auto fp = distiller.distill(capture[i]);
    const core::SipFootprint* sip = fp ? fp->sip() : nullptr;
    if (sip == nullptr) continue;
    if (sip->is_request && sip->method == "BYE") bye_at = i;
    // Only legs touching the monitored home address reach the engines.
    if (!sip->sdp_media || sip->cseq_method != "INVITE") continue;
    if (fp->src.addr != f.a_host.address() && fp->dst.addr != f.a_host.address()) continue;
    call_id = sip->call_id;
    if (sip->is_request && offer == nullptr) offer = &capture[i];
    if (sip->status_code == 200 && answer == nullptr) answer = &capture[i];
  }
  ASSERT_NE(offer, nullptr);
  ASSERT_NE(answer, nullptr);
  ASSERT_LT(bye_at, capture.size());
  // A decoy Call-ID that hashes away from the call at every shard count here.
  std::string decoy;
  for (int k = 0; decoy.empty(); ++k) {
    const std::string candidate = "decoy-" + std::to_string(k);
    bool apart = true;
    for (size_t shards : {2, 4}) {
      apart &= core::ShardRouter::shard_of(candidate, shards) !=
               core::ShardRouter::shard_of(call_id, shards);
    }
    if (apart) decoy = candidate;
  }

  std::vector<pkt::Packet> stream(capture.begin(), capture.begin() + bye_at);
  for (const pkt::Packet* signaling : {offer, answer}) {
    stream.push_back(stale_checksum_copy(*signaling, call_id, decoy));
    stream.back().timestamp = capture[bye_at].timestamp;
  }
  stream.insert(stream.end(), capture.begin() + bye_at, capture.end());

  DifferentialConfig config;
  config.topologies = {sharded_on(2), sharded_on(4), by_caller(sharded_on(4)), fleet_of(2, 1),
                       fleet_of(4, 2)};
  config.engine.home_addresses = {f.a_host.address()};
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_alerts, 1u) << "the BYE attack should alert";
}

TEST(Differential, DropPolicySkipsStrictComparisonButKeepsAccounting) {
  // Saturated tiny rings under kDrop: alert equality is not required (losses
  // are real) but the front-end accounting identity still is.
  Sharded saturated = sharded_on(2);
  saturated.config.overflow = core::OverflowPolicy::kDrop;
  saturated.config.queue_capacity = 2;
  DifferentialConfig config;
  config.topologies = {saturated};
  StreamConfig stream_config;
  stream_config.benign_calls = 5;
  DifferentialReport report =
      run_differential(adversarial_stream(0xd20b0001, stream_config), config);
  // Only accounting mismatches would be reported; there must be none.
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// SPIT graylisting under passive enforcement. Per-caller prevention state
/// is coherent only when every INVITE of one caller meets on one shard, so
/// the sharded topologies route INVITEs by caller.
DifferentialConfig verdict_config() {
  DifferentialConfig config;
  config.topologies = {FastPath{}};
  for (size_t workers : {1, 2, 4, 8}) config.topologies.push_back(by_caller(sharded_on(workers)));
  config.engine.enforce.mode = core::EnforcementMode::kPassive;
  core::RulesConfig rc;
  rc.spit_graylist = true;
  config.rules = core::default_ruleset(rc);
  return config;
}

TEST(Differential, VerdictParityAcrossShardCounts) {
  const std::vector<pkt::Packet> stream = spit_mix_stream(0x5b17);
  ASSERT_GT(stream.size(), 1000u);

  DifferentialReport report = run_differential(stream, verdict_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The oracle is vacuous unless the scenario actually emitted verdicts.
  EXPECT_GE(report.baseline_verdicts, 2u) << "both spammers should be graylisted";
}

TEST(Differential, VerdictParityThroughPcapRoundTrip) {
  // Export/reimport the SPIT mix through the capture file format: replayed
  // detection *and prevention* must be byte-equivalent to live processing.
  const std::vector<pkt::Packet> stream = spit_mix_stream(0x5b19);
  DifferentialConfig config = verdict_config();
  config.topologies = {PcapReplay{}, by_caller(sharded_on(2))};
  DifferentialReport report = run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.baseline_verdicts, 2u);
}

TEST(Differential, InlineAndPassiveDecideIdentically) {
  // The passive dry-run claim: enforcement mode changes what external
  // points do, never what the engine decides. Same stream, both modes —
  // identical per-action decision totals and identical verdicts.
  const std::vector<pkt::Packet> stream = spit_mix_stream(0x5b20);
  core::RulesConfig rc;
  rc.spit_graylist = true;

  uint64_t totals[2][core::kVerdictActionCount] = {};
  size_t verdicts[2] = {};
  int i = 0;
  for (core::EnforcementMode mode :
       {core::EnforcementMode::kPassive, core::EnforcementMode::kInline}) {
    core::EngineConfig config;
    config.obs.time_stages = false;
    config.enforce.mode = mode;
    core::ScidiveEngine engine(config);
    engine.set_rules(core::default_ruleset(rc));
    for (const pkt::Packet& p : stream) engine.on_packet(p);
    for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
      totals[i][a] = engine.decisions(static_cast<core::VerdictAction>(a));
    }
    verdicts[i] = engine.verdicts().count();
    ++i;
  }
  for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
    EXPECT_EQ(totals[0][a], totals[1][a])
        << core::verdict_action_name(static_cast<core::VerdictAction>(a));
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_GE(verdicts[0], 2u);
  EXPECT_GT(totals[0][static_cast<size_t>(core::VerdictAction::kRateLimit)], 0u)
      << "graylisted spammers should have been shaped";
}

TEST(Differential, ReportFormatting) {
  DifferentialReport report;
  report.packets = 10;
  report.baseline_alerts = 2;
  EXPECT_NE(report.to_string().find("OK"), std::string::npos);
  report.mismatches.push_back("2 shards: something diverged");
  EXPECT_NE(report.to_string().find("FAILED"), std::string::npos);
  EXPECT_NE(report.to_string().find("diverged"), std::string::npos);
}

}  // namespace
}  // namespace scidive::fuzz
