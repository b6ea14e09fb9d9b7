// The topology oracle. SCIDIVE's contract is that detection depends only on
// the packet stream, never on where state lives: for any stream, benign or
// adversarial, every deployment of one EngineConfig must raise the same
// (rule, session) alert multiset, emit the same (rule, session, action)
// verdict multiset and count the same detection metric families as one
// ScidiveEngine with the fast path off — the only baseline. Each entry of
// the topology list is one deployment, configured by its own production
// struct: a single engine with the fast path on, a single engine over the
// stream's pcap re-import, a ShardedEngine, or a Fleet.
// run_differential() replays the stream through the baseline and every
// topology and reports each divergence it finds.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "fleet/fleet.h"
#include "pkt/packet.h"
#include "scidive/sharded_engine.h"

namespace scidive::fuzz {

/// A single engine with the established-flow fast path on.
struct FastPath {};

/// A single engine over the stream after an in-memory pcap export and
/// re-import, which must give back byte- and timestamp-identical packets.
/// Streams must have non-negative timestamps (pcap cannot represent them).
struct PcapReplay {};

/// A ShardedEngine. The oracle's engine config replaces `config.engine`.
struct Sharded {
  core::ShardedEngineConfig config;
};

/// A Fleet of `nodes` members named node-0.. . The oracle's engine config
/// replaces `config.node.engine.engine` and its home scope the fleet's.
struct FleetRun {
  fleet::FleetConfig config;
  size_t nodes = 1;
  /// Churn: when join_at > 0, node "joiner" joins after that many packets;
  /// when leave_at > join_at, node-0 then leaves. Both hand sessions off.
  size_t join_at = 0;
  size_t leave_at = 0;
};

using Topology = std::variant<FastPath, PcapReplay, Sharded, FleetRun>;

Sharded sharded_on(size_t workers);
FleetRun fleet_of(size_t nodes, size_t workers_per_node);
/// The same deployment with INVITEs routed by the caller's AOR
/// (ShardedEngineConfig::route_invite_by_caller).
Sharded by_caller(Sharded topology);
FleetRun by_caller(FleetRun topology);

/// The fast path on, sharded at 1/2/4/8 workers, and 4 workers routing
/// INVITEs by caller.
std::vector<Topology> default_topologies();

struct DifferentialConfig {
  /// The deployments each compared against the baseline.
  std::vector<Topology> topologies = default_topologies();
  /// The detection config every run shares. obs.time_stages is forced off
  /// (wall-clock histograms can never be equal) and the baseline forces
  /// fastpath.enabled off.
  core::EngineConfig engine;
  /// The ruleset every engine, shard and node runs, installed before any
  /// traffic; null keeps the default ruleset of `engine.rules`.
  core::RulesetPtr rules;
};

struct DifferentialReport {
  size_t packets = 0;
  size_t baseline_alerts = 0;
  size_t baseline_verdicts = 0;
  /// Sessions moved by fleet churn, summed over runs (a churn run that
  /// moves nothing proves nothing).
  uint64_t sessions_handed_off = 0;
  /// Principal records moved by fleet churn, summed over runs.
  uint64_t principals_handed_off = 0;
  /// Human-readable divergence descriptions; empty means the oracle holds.
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string to_string() const;
};

/// Feed `stream` through the baseline and every topology, and require of
/// each topology:
///   - the accounting identity: every packet offered is filtered, dropped
///     on a full ring, held as an incomplete fragment, or seen by exactly
///     one engine;
///   - the baseline's packets_filtered;
///   - unless its own counters show loss (ring drops, lost gossip frames,
///     dropped gossip records), the baseline's alert multiset, verdict
///     multiset and detection metric families — events, events by type,
///     alerts, per-rule alerts and events, and parse errors except the ipv4
///     axis (reassembly placement differs across topologies, so packet and
///     fragment counters are out of scope by design).
DifferentialReport run_differential(const std::vector<pkt::Packet>& stream,
                                    const DifferentialConfig& config = {});

}  // namespace scidive::fuzz
