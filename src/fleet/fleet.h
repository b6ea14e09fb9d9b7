// Fleet: an in-process N-node SCIDIVE cluster with deterministic gossip.
//
// Session space is carved into virtual slots: one fleet-level ShardRouter
// (the same session-affinity keys as a node's own front-end, over
// FleetRing::kDefaultSlots shards) maps every packet to a slot, and the
// rendezvous-hashed ring maps slots to nodes. The key -> slot mapping is
// membership-independent, so learned media bindings and pinned call-ids
// survive churn; join/leave only reassigns the slots whose rendezvous
// winner changed (expected slots/N), and exactly those slots' session and
// principal records move to their new owner.
//
// The harness owns transport: frames drain between engine quiesce points,
// optionally through a seeded loss gate (counted drops). flush() pumps
// gossip to a fixpoint and then settles vouch-held claims, so post-flush
// the union alert multiset is a deterministic function of the packet
// sequence — the property the topology oracle pins across node counts.
// The netsim UDP transport (udp_transport.h) replaces this harness's
// delivery loop with real simulated datagrams.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/node.h"
#include "fleet/ring.h"

namespace scidive::fleet {

struct FleetConfig {
  /// Virtual slots (ownership granularity). More slots = smoother balance
  /// and finer-grained churn movement.
  size_t num_slots = kDefaultSlots;
  /// Fleet-level home scope; member nodes run with an empty scope so the
  /// filter is paid once at dispatch.
  std::set<pkt::Ipv4Address> home_addresses;
  /// Template for every member (name and epoch are set per node).
  FleetNodeConfig node;
  /// Streaming gossip cadence: pump every member and deliver built frames
  /// after this many dispatched packets.
  size_t pump_every_packets = 1024;
  /// Seeded frame loss on the gossip channel (0 = lossless). Lost frames
  /// are counted (FleetStats::frames_lost); the oracle relaxes its parity
  /// checks only for a run whose counters show loss.
  double gossip_loss = 0.0;
  uint64_t loss_seed = 1;
};

struct FleetStats {
  uint64_t packets_seen = 0;
  uint64_t packets_filtered = 0;  // outside the fleet home scope
  uint64_t fragments_held = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_lost = 0;       // seeded gossip-loss gate
  uint64_t sessions_handed_off = 0;
  uint64_t principals_handed_off = 0;
  uint64_t handoff_skipped_synthetic = 0;  // flow:/anon sessions stay put
  uint64_t handoff_skipped_held = 0;       // new owner already had the AOR
  uint64_t handoff_skipped_invalid = 0;    // extract/install refused
  /// Engine-level packet totals of departed members (leave or crash), kept
  /// so the seen == filtered + held + node-seen identity survives churn.
  uint64_t retired_engine_seen = 0;
  uint64_t retired_engine_dropped = 0;
};

class Fleet {
 public:
  Fleet(FleetConfig config, std::vector<std::string> node_names);

  /// Dispatch one packet: fleet home filter, slot routing, owner delivery.
  /// Single feeder thread, like ShardedEngine::on_packet.
  void on_packet(const pkt::Packet& packet);
  capture::PacketTap tap() {
    return [this](const pkt::Packet& packet) { on_packet(packet); };
  }

  /// Feed a source to exhaustion, then flush(). Returns packets fed.
  uint64_t run(capture::PacketSource& source);

  /// Pump gossip to a fixpoint and settle held claims. Post-flush, member
  /// engines and the union alert/verdict multisets are safe to read.
  void flush();
  /// One streaming pump round (each member pumps once, frames deliver once).
  void pump_now();

  /// Replace every member's ruleset (ShardedEngine::set_rules), and keep it
  /// for nodes that join later.
  void set_rules(core::RulesetPtr rules);

  /// Membership churn. add/remove hand the moved slots' sessions and
  /// principals off to their new owners; crash loses the node's state
  /// (peers fail open). A joining node runs the fleet's ruleset before any
  /// record is handed to it.
  bool add_node(const std::string& name);
  bool remove_node(const std::string& name);
  bool crash_node(const std::string& name);

  size_t size() const { return nodes_.size(); }
  FleetNode* node(const std::string& name);
  FleetNode& node_at(size_t i) { return *nodes_[i]; }
  const FleetRing& ring() const { return ring_; }
  const core::ShardRouter& router() const { return router_; }

  /// Union across members, deterministic order (call after flush()).
  std::vector<core::Alert> merged_alerts() const;
  std::vector<core::Verdict> merged_verdicts() const;

  FleetStats stats() const { return stats_; }
  /// Control-plane stats summed over members.
  FleetNodeStats node_stats() const;

  /// Every member's instruments with a node="name" label (exposition).
  obs::Snapshot metrics_rollup();
  /// Every member's instruments summed (cross-topology comparisons).
  obs::Snapshot merged_metrics();

 private:
  std::unique_ptr<FleetNode> make_node(const std::string& name);
  void rebuild_slot_cache();
  size_t deliver_frames(SimTime now);
  void deliver_hellos(SimTime now);
  void deliver(const std::string& to, const Bytes& frame, SimTime now);
  FleetNode* find(const std::string& name);
  size_t slot_of_session(const core::SessionId& session) const;
  /// Move every non-synthetic session and every principal sitting on a
  /// node the ring no longer assigns its slot to. Requires all members
  /// flushed.
  void relocate_moved_records();
  /// Fold a departing member's history into the fleet before it is erased:
  /// alerts and verdicts already raised are facts (an operator's sink has
  /// them), and the engine/control-plane counters must keep the fleet's
  /// accounting identities intact across churn.
  void retire_node(FleetNode& node);

  FleetConfig config_;
  /// set_rules's ruleset, given to every joiner; null means the default.
  core::RulesetPtr rules_;
  FleetRing ring_;
  core::ShardRouter router_;  // slot-level routing: media bindings, call-id pins
  std::vector<std::unique_ptr<FleetNode>> nodes_;
  std::vector<FleetNode*> slot_node_;  // slot -> owner (cache of ring state)
  Rng rng_;
  uint64_t packets_since_pump_ = 0;
  SimTime last_time_ = 0;
  FleetStats stats_;
  /// History of departed members (see retire_node).
  std::vector<core::Alert> retired_alerts_;
  std::vector<core::Verdict> retired_verdicts_;
  obs::Snapshot retired_metrics_;  // summed, unlabeled (merged_metrics)
  obs::Snapshot retired_rollup_;   // node="name"-tagged (metrics_rollup)
  FleetNodeStats retired_node_stats_;
};

}  // namespace scidive::fleet
