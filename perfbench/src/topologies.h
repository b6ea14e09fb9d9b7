// The three deployments the benchmark drives, behind one feed/checkpoint/finish
// interface: ScidiveEngine, ShardedEngine with 2 workers, and a 2-node
// fleet of 1 worker each. Each uses at most 3 threads (the feeding thread
// plus workers). Sharded and fleet ingestion block when a ring is full
// (OverflowPolicy::kBlock), so the replay is a closed loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "scidive/engine.h"
#include "scidive/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

/// Cost of one clock read, as a timed interval sees it: the median of
/// back-to-back read pairs. Every timed call contains one, so the benchmark
/// subtracts it from each per-call sample.
inline double clock_read_ns() {
  constexpr size_t kPairs = 20001;
  std::vector<uint64_t> d(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    const uint64_t a = now_ns();
    d[i] = now_ns() - a;
  }
  std::nth_element(d.begin(), d.begin() + kPairs / 2, d.end());
  return static_cast<double>(d[kPairs / 2]);
}

/// Canonical, sorted spellings of an alert and verdict multiset, so two
/// topologies' outputs compare with ==.
struct Outputs {
  std::vector<std::string> alerts;
  std::vector<std::string> verdicts;
  bool operator==(const Outputs&) const = default;
};

inline Outputs canonical(const std::vector<scidive::core::Alert>& alerts,
                         const std::vector<scidive::core::Verdict>& verdicts) {
  Outputs out;
  for (const auto& a : alerts) {
    out.alerts.push_back(a.rule + "|" + a.session + "|" + std::to_string(a.time) + "|" +
                         a.message);
  }
  for (const auto& v : verdicts) {
    out.verdicts.push_back(v.rule + "|" + std::string(verdict_action_name(v.action)) + "|" +
                           v.session + "|" + std::to_string(v.time) + "|" + v.aor + "|" +
                           v.endpoint.to_string());
  }
  std::sort(out.alerts.begin(), out.alerts.end());
  std::sort(out.verdicts.begin(), out.verdicts.end());
  return out;
}

class SingleTopology {
 public:
  static constexpr const char* kName = "single";
  explicit SingleTopology(const Deployment& d) : engine(d.engine) {}
  void feed(const scidive::pkt::Packet& packet) { engine.on_packet(packet); }
  void checkpoint() {}
  void finish() {}
  Outputs outputs() const {
    return canonical(engine.alerts().alerts(), engine.verdicts().verdicts());
  }
  uint64_t dropped() const { return 0; }

  scidive::core::ScidiveEngine engine;
};

inline scidive::core::ShardedEngineConfig sharded_config(const Deployment& d, size_t workers) {
  scidive::core::ShardedEngineConfig c;
  c.engine = d.engine;
  c.num_shards = workers;
  c.overflow = scidive::core::OverflowPolicy::kBlock;
  c.route_invite_by_caller = d.route_invite_by_caller;
  return c;
}

class ShardedTopology {
 public:
  static constexpr const char* kName = "sharded";
  static constexpr size_t kWorkers = 2;
  explicit ShardedTopology(const Deployment& d) : engine(sharded_config(d, kWorkers)) {}
  void feed(const scidive::pkt::Packet& packet) { engine.on_packet(packet); }
  void checkpoint() { engine.flush(); }
  void finish() { engine.flush(); }
  Outputs outputs() const { return canonical(engine.merged_alerts(), engine.merged_verdicts()); }
  uint64_t dropped() const { return engine.packets_dropped(); }

  scidive::core::ShardedEngine engine;
};

inline scidive::fleet::FleetConfig fleet_config(const Deployment& d) {
  scidive::fleet::FleetConfig c;
  c.node.engine = sharded_config(d, 1);
  return c;
}

class FleetTopology {
 public:
  static constexpr const char* kName = "fleet";
  explicit FleetTopology(const Deployment& d) : fleet(fleet_config(d), {"node-0", "node-1"}) {}
  void feed(const scidive::pkt::Packet& packet) { fleet.on_packet(packet); }
  /// Fleet::flush() also settles held claims, which would change what the
  /// fleet detects; between segments the fleet's own pump (every 1024
  /// packets) is the only quiesce, so under a pump interval of work spills
  /// into the next segment.
  void checkpoint() {}
  void finish() { fleet.flush(); }
  Outputs outputs() const { return canonical(fleet.merged_alerts(), fleet.merged_verdicts()); }
  /// Ring drops on every member plus gossip records dropped at full queues.
  uint64_t dropped() {
    uint64_t n = fleet.node_stats().gossip_records_dropped;
    for (size_t i = 0; i < fleet.size(); ++i) n += fleet.node_at(i).engine().packets_dropped();
    return n;
  }

  scidive::fleet::Fleet fleet;
};

/// Feeds one pass and waits until the topology has consumed it.
template <typename Topology>
void feed_pass(Topology& topology, Stream& stream, uint64_t pass) {
  replay(stream, pass, [&](const scidive::pkt::Packet& packet) { topology.feed(packet); });
  topology.finish();
}

}  // namespace perfbench
