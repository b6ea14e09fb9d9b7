// FleetNode: one member of a cooperative SCIDIVE cluster. Wraps a full
// (optionally sharded) local engine with the fleet control plane:
//
//   * per-shard event capture — each worker appends its own events to a
//     private buffer; pump() drains them at a flush-quiesce point;
//   * gossip egress — shared events, verdicts, vouches and correlator
//     partials batch into per-peer bounded GossipQueues (SEP-v2 frames);
//   * gossip intake — on_datagram() strictly decodes untrusted frames
//     (counted parse errors) into an inbox that pump() applies
//     at the next quiesce point, never concurrently with the workers;
//   * verdict adoption — a peer's non-pass verdict is applied through the
//     local enforcer, so a principal blocked on node A is screened here;
//   * vouch-held claims — incoming IM/BYE/re-INVITE claiming a peer-homed
//     user is held for verify_delay; absent the owning host's vouch, the
//     claim is judged forged (spoofed source attribution, §4.2.2/§6);
//   * fleet-wide correlation — FleetCorrelator partials advance on local
//     REGISTER/auth-failure events and merge from peers; the ring owner of
//     a key (injected via set_owner_check) alerts once fleet-wide. Each
//     pump gossips the newest partial per changed window and evaluates
//     only the windows that changed; add_peer/remove_peer/set_owner_check
//     change ring ownership, so they make the next pump evaluate them all.
//
// Threading: the engine's workers run free; everything else (on_datagram,
// pump, take_frames) belongs to one control thread — the fleet harness or
// the netsim simulation thread — which is also the only packet feeder.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fleet/correlate.h"
#include "fleet/gossip.h"
#include "fleet/sep_wire.h"
#include "scidive/sharded_engine.h"
#include "voip/user_agent.h"

namespace scidive::fleet {

struct FleetNodeConfig {
  std::string name = "node-0";
  /// Incarnation, bumped on restart — lets peers spot a reborn node whose
  /// cumulative counters restarted from zero.
  uint64_t epoch = 1;
  /// The local engine. Its home-address scope is cleared — the fleet
  /// dispatcher filters once at fleet level; num_shards is this node's
  /// worker count.
  core::ShardedEngineConfig engine;
  /// Event types worth the control-channel bandwidth (§6: "a challenge is
  /// to design the appropriate protocol that does not overwhelm the system
  /// with control messages").
  std::set<core::EventType> shared_types = {core::EventType::kRtpAfterBye,
                                            core::EventType::kRtpAfterReinvite};
  /// How long a claim naming a peer-homed user is held for that host's
  /// vouch before being judged forged.
  SimDuration verify_delay = msec(300);
  /// Vouch/claim times closer than this are "the same" action.
  SimDuration match_window = sec(1);
  /// Fail-open: when no peer has been heard from within this window, held
  /// claims are skipped (counted) rather than flagged — a dead peer IDS
  /// must not turn every genuine hangup into an alarm. 0 = fail-closed.
  SimDuration peer_liveness_window = sec(30);
  GossipConfig gossip;
  CorrelatorConfig correlator;
  size_t remote_buffer_max = 4096;
};

/// Control-plane counters (view; mirrored into the metrics registry).
struct FleetNodeStats {
  uint64_t events_shared = 0;
  uint64_t events_received = 0;
  uint64_t frames_received = 0;
  uint64_t parse_errors = 0;      // undecodable datagrams
  uint64_t unknown_records = 0;   // forward-compat skips
  uint64_t verdicts_shared = 0;
  uint64_t verdicts_adopted = 0;
  uint64_t vouches_sent = 0;
  uint64_t vouches_received = 0;
  uint64_t counters_shared = 0;
  uint64_t counters_merged = 0;
  uint64_t handoffs_announced = 0;
  uint64_t handoffs_heard = 0;
  uint64_t principals_handed_off = 0;  // principal records given to new owners
  uint64_t claims_held = 0;
  uint64_t claims_confirmed = 0;
  uint64_t claims_flagged = 0;
  uint64_t claims_skipped_peer_down = 0;
  uint64_t gossip_records_dropped = 0;  // summed over peer queues
  uint64_t gossip_frames_built = 0;
  uint64_t gossip_bytes_built = 0;
};

/// One record heard from a peer (bounded trace for tests and debugging).
struct RemoteRecord {
  std::string from;
  SepRecord record;
};

class FleetNode {
 public:
  explicit FleetNode(FleetNodeConfig config);

  const std::string& name() const { return config_.name; }
  uint64_t epoch() const { return config_.epoch; }
  core::ShardedEngine& engine() { return engine_; }
  const core::ShardedEngine& engine() const { return engine_; }

  /// Full-mesh membership. Adding creates this peer's gossip queue.
  void add_peer(const std::string& name);
  void remove_peer(const std::string& name);
  std::vector<std::string> peers() const;

  /// Declare that `aor` is homed at a peer (claims naming it verify
  /// cooperatively against that host's vouches).
  void add_peer_user(const std::string& aor);

  /// This node vouches for a co-located client: genuine IMs, hangups and
  /// media migrations gossip as host-truth vouch records.
  void attach_local_agent(voip::UserAgent& agent);

  /// Pre-routed ingestion from the fleet dispatcher (slot -> worker shard
  /// is slot mod workers). Single feeder thread, like ShardedEngine::on_packet.
  void on_packet_to_slot(size_t slot, const pkt::Packet& packet) {
    engine_.on_packet_to_shard(slot, packet);
  }

  /// One raw SEP datagram from a peer (untrusted). Decodes strictly and
  /// stages the records; application happens in pump().
  void on_datagram(std::span<const uint8_t> payload, SimTime now);

  /// Quiesce the engine, drain its outputs into gossip, apply staged peer
  /// records, judge expired held claims, run the correlator. The heart of
  /// the control plane; call from the single control thread.
  void pump(SimTime now);

  /// Drain one built frame per peer with queued records. Call repeatedly
  /// (frames are batched) until empty.
  std::vector<std::pair<std::string, Bytes>> take_frames();
  bool gossip_pending() const;
  /// A liveness heartbeat frame for every peer.
  std::vector<std::pair<std::string, Bytes>> hello_frames() const;

  /// Announce an ownership transfer this node just performed (the session
  /// record itself moved in-process; this is the wire-visible half).
  void announce_handoff(const SepHandoff& handoff) {
    ++stats_.handoffs_announced;
    broadcast(SepRecord{handoff});
  }
  /// Count a principal record this node just gave to a new owner. Nothing
  /// goes on the wire: principal traffic routes by the AOR's hash alone.
  void principal_handed_off() { ++stats_.principals_handed_off; }

  /// Who coordinates a correlation key — wired to FleetRing::owner_of_key
  /// by the harness. Default: self owns everything (single node).
  void set_owner_check(std::function<bool(std::string_view)> is_owner) {
    is_owner_ = std::move(is_owner);
    correlator_.ownership_changed();
  }

  FleetNodeStats stats() const;
  const FleetCorrelator& correlator() const { return correlator_; }
  const std::deque<RemoteRecord>& remote_records() const { return remote_records_; }
  SimTime last_peer_heard() const { return last_peer_heard_; }

  /// Engine metrics plus the fleet control-plane instruments (flushes).
  obs::Snapshot metrics_snapshot();

  static constexpr const char* kFleetFakeImRule = "fleet-fake-im";
  static constexpr const char* kFleetSpoofedByeRule = "fleet-spoofed-bye";
  static constexpr const char* kFleetSpoofedReinviteRule = "fleet-spoofed-reinvite";

 private:
  struct HeldClaim {
    VouchKind kind;
    std::string key;
    core::Event event;
    SimTime deadline;
  };

  void on_engine_outputs(SimTime now);  // post-flush: events + verdicts
  void apply_inbox(SimTime now);
  void judge_held(SimTime now);
  void broadcast(const SepRecord& record);
  void hold_claim(VouchKind kind, std::string key, const core::Event& event);
  bool peer_live(SimTime now) const;
  void sync_metrics();

  FleetNodeConfig config_;
  core::ShardedEngine engine_;
  std::vector<std::unique_ptr<GossipQueue>> peer_queues_;
  std::vector<std::string> peer_names_;
  std::set<std::string> peer_users_;
  FleetCorrelator correlator_;
  VouchStore vouches_;
  std::function<bool(std::string_view)> is_owner_ = [](std::string_view) { return true; };

  /// Worker-written, pump-drained (flush() is the memory barrier): each
  /// shard's events, and every non-pass verdict its rules raised.
  std::vector<std::vector<core::Event>> event_buffers_;
  std::vector<std::vector<core::Verdict>> verdict_buffers_;

  /// Records decoded from peers, staged until the next quiesce point.
  std::vector<std::pair<std::string, SepRecord>> inbox_;
  std::deque<HeldClaim> held_;
  SimTime last_peer_heard_ = -1;
  std::deque<RemoteRecord> remote_records_;
  FleetNodeStats stats_;
};

}  // namespace scidive::fleet
