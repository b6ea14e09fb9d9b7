// Golden-capture round trip: a four-attack testbed run is recorded to a
// checked-in pcap, and replaying that file must be detection-equivalent to
// the live simulation — identical alerts and audit-ledger records from a
// single engine, and an identical alert multiset from the topology oracle's
// pcap-replay topology beside its default sharded ones.
//
// The golden file doubles as a capture-format compatibility pin: if the
// writer's byte layout drifts, the file comparison fails. Regenerate
// intentionally with:
//
//   SCIDIVE_REGEN_GOLDEN=1 ./scidive_tests --gtest_filter='PcapRoundtrip.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "capture/packet_source.h"
#include "capture/pcap.h"
#include "common/strings.h"
#include "fuzz/differential.h"
#include "obs/alert_ledger.h"
#include "scidive/engine.h"
#include "testbed/testbed.h"

namespace scidive::capture {
namespace {

std::string golden_path() {
  return std::string(SCIDIVE_CAPTURE_DATA_DIR) + "/four_attacks.pcap";
}

/// One continuous testbed run staging all four paper attacks, recorded off
/// the hub. Fully deterministic (fixed delays, fixed seed, no wall clock).
std::vector<pkt::Packet> captured_stream() {
  testbed::TestbedConfig cfg;
  cfg.ids_obs.time_stages = false;
  testbed::Testbed tb(cfg);
  std::vector<pkt::Packet> stream;
  tb.net().add_tap([&stream](const pkt::Packet& p) { stream.push_back(p); });

  tb.register_all();
  tb.client_b().add_contact(tb.client_a().aor(), tb.client_a().sip_endpoint());
  tb.client_b().send_im("alice", "lunch at noon? - bob");
  tb.run_for(sec(1));

  const std::string call1 = tb.establish_call(sec(3));
  tb.inject_bye_attack();
  tb.run_for(sec(1));
  // B never saw the forged BYE and is still streaming; end the call for
  // real so the orphan-RTP noise stops before the next stage.
  tb.client_b().hangup(call1);
  tb.run_for(sec(1));

  tb.inject_fake_im();
  tb.run_for(sec(1));

  tb.establish_call(sec(3));
  tb.inject_call_hijack();
  tb.run_for(sec(1));
  tb.inject_rtp_flood(30);
  tb.run_for(sec(2));
  return stream;
}

core::EngineConfig endpoint_engine_config() {
  core::EngineConfig config;
  config.obs.time_stages = false;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 1)};  // testbed client A
  return config;
}

/// Canonical text form of a ledger record, wall clock excluded (the only
/// field that cannot be identical across two runs).
std::string record_key(const obs::AlertRecord& r) {
  return str::format(
      "%s|cause=%d:%s:%lld@%s:%u|trail=%s|t=%lld", r.alert.to_string().c_str(),
      static_cast<int>(r.cause_type), r.cause_detail.c_str(),
      static_cast<long long>(r.cause_value),
      r.cause_endpoint.addr.to_string().c_str(), r.cause_endpoint.port,
      r.trail.to_string().c_str(), static_cast<long long>(r.sim_time));
}

std::vector<std::string> run_engine(const std::vector<pkt::Packet>& stream,
                                    std::vector<std::string>* alerts_out) {
  core::ScidiveEngine engine(endpoint_engine_config());
  for (const pkt::Packet& p : stream) engine.on_packet(p);
  if (alerts_out) {
    for (const core::Alert& a : engine.alerts().alerts()) {
      alerts_out->push_back(a.to_string());
    }
  }
  std::vector<std::string> ledger;
  for (const obs::AlertRecord& r : engine.ledger().records()) {
    ledger.push_back(record_key(r));
  }
  return ledger;
}

std::string export_to_bytes(const std::vector<pkt::Packet>& stream) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out);
  for (const pkt::Packet& p : stream) writer.write(p);
  return out.str();
}

TEST(PcapRoundtrip, GoldenCaptureIsCurrent) {
  const std::string actual = export_to_bytes(captured_stream());

  if (std::getenv("SCIDIVE_REGEN_GOLDEN")) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run once with SCIDIVE_REGEN_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "capture bytes changed; if the simulation or pcap writer changed "
         "intentionally, regenerate with SCIDIVE_REGEN_GOLDEN=1";
}

TEST(PcapRoundtrip, ReplayFromDiskIsDetectionEquivalent) {
  PcapFileSource source(golden_path());
  if (!source.ok() && std::getenv("SCIDIVE_REGEN_GOLDEN")) {
    GTEST_SKIP() << "golden file being regenerated";
  }
  ASSERT_TRUE(source.ok()) << source.error();
  const std::vector<pkt::Packet> from_disk = read_all(source);
  ASSERT_TRUE(source.ok()) << source.error();

  const std::vector<pkt::Packet> live = captured_stream();
  ASSERT_EQ(from_disk.size(), live.size());

  std::vector<std::string> live_alerts, disk_alerts;
  const auto live_ledger = run_engine(live, &live_alerts);
  const auto disk_ledger = run_engine(from_disk, &disk_alerts);

  // All four staged attacks must actually be detected...
  std::set<std::string> rules;
  for (const std::string& a : live_alerts) {
    for (const char* rule : {"bye-attack", "fake-im", "call-hijack", "rtp-attack"}) {
      if (a.find(rule) != std::string::npos) rules.insert(rule);
    }
  }
  EXPECT_EQ(rules.size(), 4u) << "expected all four attacks to raise alerts";

  // ...and the capture-file trip must change nothing: alert-for-alert and
  // ledger-record-for-record identical (wall clock excluded).
  EXPECT_EQ(disk_alerts, live_alerts);
  EXPECT_EQ(disk_ledger, live_ledger);
}

TEST(PcapRoundtrip, DifferentialOracleHoldsThroughCaptureReplay) {
  const std::vector<pkt::Packet> stream = captured_stream();
  fuzz::DifferentialConfig config;
  config.engine = endpoint_engine_config();
  config.topologies.push_back(fuzz::PcapReplay{});
  const fuzz::DifferentialReport report = fuzz::run_differential(stream, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.baseline_alerts, 0u);
}

}  // namespace
}  // namespace scidive::capture
