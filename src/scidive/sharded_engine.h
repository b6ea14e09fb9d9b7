// ShardedEngine: a multi-worker front-end over N private ScidiveEngines.
// One feeding thread calls on_packet(); a session-affinity router (see
// shard_router.h) picks a shard and the datagram is copied into a slot of a
// bounded ring — slots keep their buffers across laps, so neither side
// allocates — for that shard's worker, which owns a single-threaded engine.
// Each worker wakeup drains whatever is published, up to one ring lap, and
// frees every slot as soon as its packet has been processed: the feeder
// never waits on a batch boundary, so the drain has no size to tune.
// Because every packet of a session — signaling, media learned from its SDP,
// billing records — lands on one shard, the paper's stateful and
// cross-protocol semantics are preserved with zero locking on the hot path.
//
// One feeder, one routing owner: the feeding thread owns the router and
// with it every piece of routing state (media bindings, session overrides,
// the reassembler). Workers share nothing mutable: every shard runs the one
// immutable Ruleset, and each shard's rule state and Enforcer are its own.
// A verdict a shard's rules apply is forwarded, after the batch that raised
// it, to every other shard's verdict inbox, and each worker applies its
// inbox to its own Enforcer at the top of its next poll. A forwarded verdict
// is applied but never raised again (verdict multisets stay per-shard) and
// never forwarded again.
//
// Determinism protocol: flush() blocks until every queue and every verdict
// inbox is drained and every worker is parked; after it returns (and until
// the next on_packet) the shard engines, merged stats and merged alerts may
// be read safely. Below the caps, every shard's block list and armed
// buckets then hold the same keys, whatever the timing: blocks merge by
// max action and max expiry, and arming is idempotent.
// Backpressure is explicit: a full ring either blocks the feeder
// (OverflowPolicy::kBlock, the default) or drops the packet and counts it —
// packets are never silently lost.
//
// Session relocation (extract_session / install_session) is the fleet's
// churn-handoff path: called from the feeding thread after flush(), it
// moves one session record between engines and repoints the router.
// Principal records move the same way (extract_principal /
// install_principal) and need no repointing.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "scidive/engine.h"
#include "scidive/enforce.h"
#include "scidive/shard_router.h"

namespace scidive::core {

enum class OverflowPolicy {
  kBlock,  // feeder waits for ring space (lossless; applies backpressure)
  kDrop,   // feeder drops and counts (bounded latency; never silent)
};

struct ShardedEngineConfig {
  /// Per-shard engine configuration. The home-address scope is enforced
  /// once at the front-end; shards receive the config with an empty scope
  /// so the filter is not paid twice.
  EngineConfig engine;
  size_t num_shards = 4;
  size_t queue_capacity = 4096;  // per-shard ring slots (rounded up to 2^k)
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Pin worker i to cpu i % hardware_concurrency. Linux only; a failed
  /// pin is ignored. The multicore bench uses this to stop the scheduler
  /// from stacking workers on one core mid-measurement.
  bool pin_workers = false;
  /// Route initial INVITEs by caller AOR (principal affinity) instead of
  /// Call-ID. Per-caller rules (SPIT graylisting) keep their state coherent
  /// only when every call attempt of one caller lands on one shard — the
  /// same trade REGISTER/MESSAGE routing already makes. Off by default:
  /// call-id routing spreads call load more evenly when no per-caller rule
  /// is installed.
  bool route_invite_by_caller = false;
};

/// Front-end counters plus shard-summed engine stats. Like EngineStats this
/// is a view built on demand — the engine half reads each shard's registry.
struct ShardedEngineStats {
  uint64_t packets_seen = 0;      // front-end: routed plus pre-routed
  uint64_t packets_filtered = 0;  // outside the home scope
  uint64_t packets_dropped = 0;   // ring full under OverflowPolicy::kDrop
  EngineStats engine;             // summed across shards (read after flush())
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Feed one captured packet. All calls come from one thread at a time.
  void on_packet(const pkt::Packet& packet);

  /// A tap suitable for netsim::Network::add_tap.
  capture::PacketTap tap() {
    return [this](const pkt::Packet& packet) { on_packet(packet); };
  }

  /// Pre-routed ingestion for callers that own the routing decision (the
  /// fleet dispatcher routes once at fleet level — slot -> node -> worker —
  /// and addresses the worker shard directly). Bypasses this engine's
  /// router and home filter; ring backpressure and drop accounting apply
  /// unchanged. Calls come from the feeding thread, like on_packet.
  void on_packet_to_shard(size_t shard, const pkt::Packet& packet);

  /// Session relocation between engines — the fleet's churn-handoff path.
  /// Both are called from the feeding thread after flush(), like shard(i)
  /// access. Extract from whichever shard holds the session; the result is
  /// invalid when none does.
  TrailManager::ExtractedSession extract_session(const SessionId& session);
  /// Install into `shard` (mod num_shards) and repoint routing — session
  /// override plus the session's media bindings — so the router sends the
  /// session there. False if invalid or the shard already has it.
  bool install_session(TrailManager::ExtractedSession&& moved, size_t shard);
  /// The same for a principal record. No routing changes: principal traffic
  /// routes by the AOR's hash, so `shard` must be the one it hashes to.
  /// False if invalid or the shard already holds the AOR.
  TrailManager::ExtractedPrincipal extract_principal(std::string_view aor);
  bool install_principal(TrailManager::ExtractedPrincipal&& moved, size_t shard);

  /// Adopt a verdict computed elsewhere (a fleet peer's engine): apply its
  /// content-derived key to every shard's enforcer. Nothing is raised or
  /// forwarded. No-op when enforcement is off. Quiescent-only, like
  /// shard(i) access.
  void adopt_verdict(const Verdict& verdict);

  /// Drive loop over a capture source, then flush() — so when this returns, merged alerts/stats/shards are safe to
  /// read. Flush-deterministic: the post-run state is a pure function of
  /// the packet sequence (same guarantee the differential oracle pins).
  uint64_t run(capture::PacketSource& source) {
    pkt::Packet packet;
    uint64_t fed = 0;
    while (source.next(&packet)) {
      on_packet(packet);
      ++fed;
    }
    flush();
    return fed;
  }

  /// Drain every ring and park every worker. After this returns, shard
  /// state is safe to read until the next on_packet call. Called from the
  /// feeding thread.
  void flush();

  /// flush() + join the workers. Idempotent; the destructor calls it.
  void stop();

  /// Forced sweep across all shards (flushes first): every record idle since
  /// before cutoff retires, and loses its router pin to that shard with it.
  /// Each shard also retires records on packet time by itself; those keep
  /// their pins, since the workers do not touch the router.
  void expire_idle(SimTime cutoff);

  /// Atomically replace every shard's ruleset (hot reload). Flushes first,
  /// so the swap happens at a quiescent boundary: every in-flight packet is
  /// matched by the old rules, every later packet by the new — no event is
  /// lost or double-matched. Every shard runs the one `rules` object: rules
  /// are immutable, and each shard's rule state lives in its own records.
  void set_rules(const RulesetPtr& rules);

  size_t num_shards() const { return shards_.size(); }
  /// Shard engine access — only safe between flush() and the next on_packet.
  ScidiveEngine& shard(size_t i) { return shards_[i]->engine; }
  const ScidiveEngine& shard(size_t i) const { return shards_[i]->engine; }
  const ShardRouter& router() const { return router_; }

  /// Front-end counters plus shard-summed engine stats (call after flush()).
  ShardedEngineStats stats() const;
  /// All alerts across shards in a deterministic order (call after flush()).
  std::vector<Alert> merged_alerts() const;
  size_t alert_count() const;
  /// All verdicts across shards in a deterministic order (call after
  /// flush()). Each verdict is raised by the shard that computed it; its
  /// enforcement reaches every shard through the verdict inboxes.
  std::vector<Verdict> merged_verdicts() const;
  uint64_t packets_dropped() const;

  /// One merged view of every instrument: each shard engine's registry
  /// (counters/histograms summed, gauges summed) plus the front-end's
  /// per-shard ring gauges, drop counters and router stats. Flushes first,
  /// so the result is a deterministic function of the packet sequence
  /// (except the worker busy/idle wall-clock counters, which measure the
  /// host, not the traffic).
  obs::Snapshot metrics_snapshot();

  /// The front-end's own registry (ring/router/reload accounting). Shard
  /// pipeline instruments live in the per-shard engine registries.
  obs::MetricsRegistry& frontend_metrics() { return frontend_registry_; }

 private:
  struct Shard {
    Shard(const EngineConfig& config, size_t queue_capacity)
        : engine(config), queue(queue_capacity) {}
    ScidiveEngine engine;
    SpscRing<pkt::Packet> queue;
    /// Feeder-written accounting (relaxed; read by flush() and snapshots).
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dropped{0};
    /// Worker-published counters on their own line: the release store of
    /// `processed` after each batch is what makes post-flush engine reads
    /// safe, and it must not share a line with feeder-written fields.
    alignas(kCacheLineSize) std::atomic<uint64_t> processed{0};
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> queue_depth_hwm{0};
    /// Worker-owned: what this shard's rules applied during the current
    /// batch.
    std::vector<Enforcement> outbox;
    /// Written by the other shards' workers: they append under `inbox_mu`
    /// and keep `inbox_pending` at the inbox's size; this worker applies
    /// and clears it under the lock, so an empty inbox costs its poll one
    /// relaxed load.
    alignas(kCacheLineSize) std::atomic<size_t> inbox_pending{0};
    std::mutex inbox_mu;
    std::vector<Enforcement> inbox;
    std::thread worker;
  };

  void worker_loop(Shard& shard, size_t index);
  /// Worker side of verdict forwarding: apply this shard's inbox, and hand
  /// its outbox to every other shard's inbox.
  void drain_inbox(Shard& shard);
  void forward_outbox(Shard& shard);
  void enqueue(size_t index, const pkt::Packet& packet);
  void pin_worker(size_t index);

  /// Mirror front-end/router state into frontend_registry_ (snapshot path;
  /// caller must hold the post-flush quiescent state).
  void sync_frontend_stats();

  ShardedEngineConfig config_;
  /// Feeder-owned: the router and the counters on_packet bumps per packet.
  ShardRouter router_;
  uint64_t seen_ = 0;         // on_packet
  uint64_t filtered_ = 0;     // outside the home scope
  uint64_t direct_seen_ = 0;  // on_packet_to_shard
  bool stopped_ = false;
  /// Front-end instruments (touched only at snapshot time; the feeder
  /// counters stay plain fields on the hot path).
  obs::MetricsRegistry frontend_registry_;
  /// Read by the workers on every idle poll, so it starts a cache line of
  /// its own, away from the feeder's per-packet writes above.
  alignas(kCacheLineSize) std::atomic<bool> stopping_{false};
  /// Last: the worker threads live here and use every member above.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace scidive::core
