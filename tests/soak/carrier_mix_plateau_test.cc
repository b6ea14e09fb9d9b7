// The memory gate for retirement on packet time: 20M packets of the default
// carrier mix (about 4.5 minutes of simulated traffic for a 1M-user
// deployment) through one ScidiveEngine. Benign traffic raises no alert,
// and the live session records and their arena bytes plateau: the last
// quarter's peak stays within 10% of the second quarter's, once the call
// population has ramped up. Without retirement both grow with every session
// ever seen. Total heap still grows slowly, because the session-id interner
// keeps every id it has seen; that goes with symbol recycling, not here.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "capture/carrier_mix.h"
#include "scidive/engine.h"

namespace scidive {
namespace {

TEST(RetirementPlateau, CarrierMixLiveSessionsAndArenaBytesPlateau) {
  constexpr uint64_t kPackets = 20'000'000;
  constexpr size_t kSamples = 40;  // ten per quarter
  capture::CarrierMixConfig mix;
  mix.max_packets = kPackets;
  capture::CarrierMixSource source(mix);
  core::ScidiveEngine engine;

  std::vector<int64_t> sessions, arena;
  pkt::Packet packet;
  uint64_t fed = 0;
  while (source.next(&packet)) {
    engine.on_packet(packet);
    if (++fed % (kPackets / kSamples) == 0) {
      const obs::Snapshot snap = engine.metrics_snapshot();
      sessions.push_back(snap.gauge_value("scidive_sessions_active"));
      arena.push_back(snap.gauge_value("scidive_session_arena_bytes"));
    }
  }
  ASSERT_EQ(fed, kPackets);
  ASSERT_EQ(sessions.size(), kSamples);
  EXPECT_EQ(engine.alerts().count(), 0u)
      << "benign carrier traffic: " << engine.alerts().alerts().front().to_string();
  EXPECT_GT(engine.trails().sessions_retired(), 10'000u);

  auto quarter_max = [&](const std::vector<int64_t>& series, size_t quarter) {
    const auto from = series.begin() + static_cast<std::ptrdiff_t>(quarter * kSamples / 4);
    return *std::max_element(from, from + kSamples / 4);
  };
  for (const auto& [name, series] :
       {std::pair{"scidive_sessions_active", &sessions},
        std::pair{"scidive_session_arena_bytes", &arena}}) {
    const int64_t second = quarter_max(*series, 1);
    const int64_t last = quarter_max(*series, 3);
    EXPECT_GT(second, 0) << name;
    EXPECT_LE(static_cast<double>(last), 1.1 * static_cast<double>(second))
        << name << ": second quarter peak " << second << ", last quarter peak " << last;
  }
}

}  // namespace
}  // namespace scidive
