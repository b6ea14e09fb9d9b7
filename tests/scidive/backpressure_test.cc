// OverflowPolicy::kBlock under saturation: a feeder that hits a full ring
// must wait, not lose — every packet offered to the front-end is filtered,
// dropped (never, under kBlock) or processed by exactly one shard engine,
// even with deliberately tiny rings. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scidive/sharded_engine.h"
#include "voip/attack.h"
#include "voip/voip_fixture.h"

namespace scidive::core {
namespace {

using voip::testing::VoipFixture;

struct CaptureFixture : VoipFixture {
  std::vector<pkt::Packet> capture;

  CaptureFixture() {
    net.add_tap([this](const pkt::Packet& packet) { capture.push_back(packet); });
  }

  /// Several calls with occasional injected RTP: enough traffic to saturate
  /// an 8-slot ring hundreds of times over.
  void soak_traffic(int rounds) {
    register_both();
    for (int round = 0; round < rounds; ++round) {
      std::string call_id = a.call("bob");
      sim.run_until(sim.now() + sec(2));
      if (round % 2 == 0) {
        voip::RtpInjector injector(attacker_host, /*seed=*/round + 1);
        injector.start({a_host.address(), a.config().rtp_port}, {.count = 10});
        sim.run_until(sim.now() + sec(1));
      }
      a.hangup(call_id);
      sim.run_until(sim.now() + sec(1));
    }
  }
};

EngineConfig home_config(pkt::Ipv4Address home) {
  EngineConfig config;
  config.home_addresses = {home};
  return config;
}

std::multiset<std::pair<std::string, std::string>> alert_multiset(
    const std::vector<Alert>& alerts) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const Alert& a : alerts) out.emplace(a.rule, a.session);
  return out;
}

TEST(Backpressure, BlockedProducerLosesNothingAndKeepsParity) {
  CaptureFixture f;
  f.soak_traffic(6);
  ASSERT_GT(f.capture.size(), 1000u);
  const EngineConfig config = home_config(f.a_host.address());

  ScidiveEngine single(config);
  for (const pkt::Packet& packet : f.capture) single.on_packet(packet);

  ShardedEngineConfig sc;
  sc.engine = config;
  sc.num_shards = 2;
  sc.queue_capacity = 8;  // saturates constantly
  sc.overflow = OverflowPolicy::kBlock;
  ShardedEngine sharded(sc);
  for (const pkt::Packet& packet : f.capture) sharded.on_packet(packet);
  sharded.flush();

  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.packets_seen, f.capture.size());
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.packets_seen,
            stats.packets_filtered + stats.packets_dropped + stats.engine.packets_seen);
  // One feeder keeps per-session ordering, so full alert parity holds too.
  EXPECT_EQ(alert_multiset(sharded.merged_alerts()), alert_multiset(single.alerts().alerts()));

  // The ring genuinely filled: the depth high-water mark reached capacity.
  obs::Snapshot snap = sharded.metrics_snapshot();
  int64_t hwm = 0;
  for (const obs::Sample& s : snap.samples()) {
    if (s.name == "scidive_shard_queue_depth_hwm" && s.gauge > hwm) hwm = s.gauge;
  }
  EXPECT_GE(hwm, 4);
}

}  // namespace
}  // namespace scidive::core
