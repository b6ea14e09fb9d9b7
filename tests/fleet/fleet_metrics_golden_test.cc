// Golden-file test for the fleet control-plane exposition: a FleetNode's
// scidive_fleet_* instruments (gossip volume, parse errors, claim
// outcomes, queue depth) ride the same Prometheus registry as the
// engine's detection families, and the full text is pinned byte-for-byte
// against a fixed, packet-free control-plane exchange. Regenerate with:
//
//   SCIDIVE_REGEN_GOLDEN=1 ./scidive_tests --gtest_filter='FleetMetricsGolden.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fleet/node.h"
#include "obs/metrics.h"

namespace scidive::fleet {
namespace {

obs::Snapshot control_plane_snapshot() {
  FleetNodeConfig config;
  config.name = "ids-a";
  config.engine.num_shards = 1;
  config.engine.engine.obs.time_stages = false;  // no wall clock in the registry
  FleetNode node(std::move(config));
  node.add_peer("ids-b");
  node.add_peer_user("bob@lab.net");

  // One well-formed SEP-v2 frame from the peer carrying every record type
  // the control plane consumes...
  SepEncoder enc("ids-b", /*epoch=*/1);
  core::Event orphan;
  orphan.type = core::EventType::kRtpAfterBye;
  orphan.session = "call-7";
  orphan.time = msec(120);
  orphan.aor = "bob@lab.net";
  orphan.endpoint = {pkt::Ipv4Address(10, 0, 0, 2), 5060};
  enc.add_event(orphan);
  enc.add_vouch(SepVouch{VouchKind::kBye, "call-7", msec(110)});
  enc.add_counter(SepCounter{CounterKind::kRegisterFlood, "10.0.0.66", 0, 3});
  enc.add_verdict(SepVerdict{"spit-graylist", core::VerdictAction::kRateLimit, "call-9",
                             "spammer@lab.net", {pkt::Ipv4Address(10, 0, 0, 66), 5083},
                             msec(150)});
  enc.add_hello();
  const Bytes frame = enc.finish();
  node.on_datagram(frame, msec(200));

  // ... plus two garbage datagrams and one line of the retired SEP1 text
  // format, all three rejected, so the parse-error meter is non-zero in the
  // golden.
  const std::string bad2 = "SEP2 but truncated";
  node.on_datagram(std::span(reinterpret_cast<const uint8_t*>(bad2.data()), bad2.size()),
                   msec(210));
  const std::string bad1 = "not sep at all";
  node.on_datagram(std::span(reinterpret_cast<const uint8_t*>(bad1.data()), bad1.size()),
                   msec(220));
  const std::string sep1 =
      "SEP1\tids-old\t15\tlegacy-3\t130000\tbob@lab.net\t0.0.0.0:0\t0\t";
  node.on_datagram(std::span(reinterpret_cast<const uint8_t*>(sep1.data()), sep1.size()),
                   msec(230));

  node.pump(msec(500));
  (void)node.take_frames();  // drain egress so queue depth settles at zero

  // Pin the control-plane families only. The full snapshot also carries the
  // engine's per-worker wall-clock counters (scidive_shard_worker_idle_ns),
  // which are real time, not simulated time — unpinnable by construction.
  obs::Snapshot fleet_only;
  const obs::Snapshot full = node.metrics_snapshot();
  for (const obs::Sample& s : full.samples()) {
    if (s.name.rfind("scidive_fleet_", 0) == 0) fleet_only.add(s);
  }
  return fleet_only;
}

std::string golden_path() {
  return std::string(SCIDIVE_TEST_DATA_DIR) + "/fleet_gossip_metrics.prom";
}

TEST(FleetMetricsGolden, ControlPlanePrometheusExposition) {
  const std::string actual = obs::to_prometheus(control_plane_snapshot());
  ASSERT_FALSE(actual.empty());
  ASSERT_NE(actual.find("scidive_fleet_events_received_total"), std::string::npos);
  ASSERT_NE(actual.find("scidive_fleet_parse_errors_total"), std::string::npos);

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
      << "fleet exposition changed; if intentional, regenerate with "
         "SCIDIVE_REGEN_GOLDEN=1";
}

TEST(FleetMetricsGolden, RunIsReproducible) {
  EXPECT_EQ(obs::to_prometheus(control_plane_snapshot()),
            obs::to_prometheus(control_plane_snapshot()));
}

}  // namespace
}  // namespace scidive::fleet
