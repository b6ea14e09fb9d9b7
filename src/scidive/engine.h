// ScidiveEngine: the assembled IDS of Figure 2/3. One instance sits at a
// vantage point (an endpoint tap in the paper's experiments), receives raw
// packets, and drives Distiller -> TrailManager -> EventGenerator ->
// RuleMatchingEngine -> Alerts.
//
// Every engine carries an obs::MetricsRegistry instrumenting the whole
// pipeline: packet/event/alert counters, per-stage latency histograms,
// per-rule counters and state gauges, and component-stat mirrors synced at
// snapshot time. Instruments are interned once at construction; recording
// on the packet path is plain cell arithmetic, so the zero-allocation hot
// path stays zero-allocation with metrics enabled.
#pragma once

#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "capture/packet_source.h"
#include "obs/alert_ledger.h"
#include "obs/metrics.h"
#include "scidive/distiller.h"
#include "scidive/enforce.h"
#include "scidive/event_generator.h"
#include "scidive/rule.h"
#include "scidive/rules.h"
#include "scidive/trail_manager.h"
#include "scidive/verdict.h"

namespace scidive::core {

struct EngineObsConfig {
  /// Sampled wall-clock timing: about one inspected packet in
  /// ScidiveEngine::kTimingPeriod, on every path, is timed through its
  /// stages into the per-stage latency histograms, the whole-decision
  /// histogram and the processing_ns estimate. Which packets are sampled is
  /// a pure function of the packet sequence; a packet that is not sampled
  /// reads no clock. Disable for byte-deterministic metric exposition
  /// (golden tests do).
  bool time_stages = true;
  /// AlertSink retention bound (alerts beyond it are dropped and counted).
  size_t alert_capacity = AlertSink::kDefaultCapacity;
  /// AlertLedger retention bound (audit records beyond it are counted).
  size_t ledger_capacity = 65536;
};

struct FastpathConfig {
  /// The established-flow bypass: steady RTP of a flow whose record the
  /// event generator has attached skips footprint construction, trail
  /// routing and the ring append, and runs the same in-place RTP step the
  /// full pipeline runs; events and rule dispatch happen only when the
  /// step emits. Detection output is byte-identical on or off; off is the
  /// baseline the topology oracle compares every deployment against.
  bool enabled = true;
};

struct EngineConfig {
  DistillerConfig distiller;
  EventGeneratorConfig events;
  RulesConfig rules;
  EngineObsConfig obs;
  FastpathConfig fastpath;
  /// Endpoint-based deployment (Figure 3/4): when non-empty, only packets
  /// to or from these addresses are inspected — "although the prototype IDS
  /// can also see the traffic of Client B and the SIP Proxy, it does not
  /// look into this traffic".
  std::set<pkt::Ipv4Address> home_addresses;
  size_t max_footprints_per_trail = 4096;
  /// Prevention layer (off by default: pure detection, byte-identical
  /// behavior and metrics to the pre-verdict engine). Passive and inline
  /// compute identical per-packet decisions; only enforcement points
  /// outside the engine treat them differently.
  EnforceConfig enforce;
};

/// Aggregate pipeline counters. Since the observability subsystem landed
/// this is a *view* over the engine's MetricsRegistry — stats() builds it
/// from the registry cells, so there is exactly one source of truth.
struct EngineStats {
  uint64_t packets_seen = 0;
  uint64_t packets_filtered = 0;   // outside the home scope
  uint64_t packets_inspected = 0;
  uint64_t events = 0;
  uint64_t alerts = 0;
  /// Estimated wall-clock nanoseconds spent inside the IDS pipeline (real
  /// CPU cost of detection; the simulation clock is unrelated): each timed
  /// packet counts for the sampling gap it stands for, so this is an
  /// estimate of the total, not a sum of every packet. Zero when
  /// EngineObsConfig::time_stages is off.
  uint64_t processing_ns = 0;
};

class ScidiveEngine {
 public:
  /// Stage timing samples one inspected packet in kTimingPeriod on average.
  /// The gap to the next sample is drawn uniformly from [kTimingGapMin,
  /// kTimingGapMax] by a fixed-seed xorshift, so the same packet sequence
  /// samples the same packets, and a stream whose packet classes repeat
  /// with a period dividing kTimingPeriod still has every class sampled.
  /// The first inspected packet is always sampled.
  static constexpr uint64_t kTimingPeriod = 64;
  static constexpr uint64_t kTimingGapMin = kTimingPeriod / 2;
  static constexpr uint64_t kTimingGapMax = kTimingPeriod * 3 / 2;

  ScidiveEngine() : ScidiveEngine(EngineConfig{}) {}
  explicit ScidiveEngine(EngineConfig config);

  /// Feed one captured packet (fragment-level; reassembly is internal).
  /// An inspected packet first advances the session records' expiry clock
  /// to its time, retiring the records idle past their retention.
  /// Returns the enforcement decision for the packet: always kPass when the
  /// prevention layer is off; otherwise the max over pre-existing blocks,
  /// armed rate limits, and verdicts the packet's own processing emitted.
  /// Detection is never gated on the decision — a dropped packet was still
  /// fully inspected, which is what keeps alert parity across modes.
  VerdictAction on_packet(const pkt::Packet& packet);

  /// A tap suitable for netsim::Network::add_tap.
  capture::PacketTap tap() {
    return [this](const pkt::Packet& packet) { on_packet(packet); };
  }

  /// Drive loop over a capture source: pull packets until the source is
  /// exhausted (pcap EOF, generator cap, or a stopped live source). Returns
  /// the number of packets fed. Deterministic for deterministic sources:
  /// the engine state afterward is a pure function of the packet sequence.
  uint64_t run(capture::PacketSource& source) {
    pkt::Packet packet;
    uint64_t fed = 0;
    while (source.next(&packet)) {
      on_packet(packet);
      ++fed;
    }
    return fed;
  }

  /// Install an additional rule (the ruleset defaults to the paper's). A
  /// stateful rule changes its key kind's rule-state layout, so the blocks
  /// of that kind built so far are freed.
  void add_rule(RulePtr rule);
  /// Drop all rules (for baseline configurations in the benches), and with
  /// them every session and principal record's rule state.
  void clear_rules();
  /// Atomically replace the whole ruleset (hot reload). Instruments for the
  /// new rules are interned against the same registry, so a rule keeping its
  /// name keeps its counters across the swap. Rule state starts fresh: every
  /// session and principal record's rule-state block is freed, as new rule
  /// instances would have it, and the new rules' layout is installed.
  /// Registered locations are the registrar's, not a rule's, and stay.
  void set_rules(std::vector<RulePtr> rules);
  size_t rule_count() const { return rules_.size(); }

  /// Observe every generated event (experiments measure detection delay
  /// from the value carried on kRtpAfterBye/kRtpAfterReinvite events).
  void set_event_callback(std::function<void(const Event&)> cb) {
    event_callback_ = std::move(cb);
  }
  /// Observe every verdict a rule raises, whether or not the verdict sink
  /// still retains it.
  void set_verdict_callback(std::function<void(const Verdict&)> cb) {
    verdict_callback_ = std::move(cb);
  }

  AlertSink& alerts() { return sink_; }
  const AlertSink& alerts() const { return sink_; }

  VerdictSink& verdicts() { return verdicts_; }
  const VerdictSink& verdicts() const { return verdicts_; }

  /// The prevention stores (nullptr when EnforceConfig::mode is kOff).
  Enforcer* enforcer() { return enforcer_.get(); }
  const Enforcer* enforcer() const { return enforcer_.get(); }
  EnforcementMode enforcement_mode() const { return config_.enforce.mode; }

  /// Non-mutating decision for a raw datagram by source address alone —
  /// the hook external enforcement points (router filter, proxy screen)
  /// use without access to distilled identities. kPass when enforcement
  /// is off or the packet has no parseable IPv4 header.
  VerdictAction peek_packet(const pkt::Packet& packet) const;

  /// Per-packet decision totals, indexed by VerdictAction (all zero when
  /// enforcement is off). packets_inspected == sum over actions.
  uint64_t decisions(VerdictAction a) const {
    return packet_verdicts_[static_cast<size_t>(a)] == nullptr
               ? 0
               : packet_verdicts_[static_cast<size_t>(a)]->value();
  }

  /// Registry-backed view (by value; fields as before).
  EngineStats stats() const;

  const Distiller& distiller() const { return distiller_; }
  const TrailManager& trails() const { return trails_; }
  const EventGenerator& events() const { return events_; }

  /// Flow records the bypass can step (observability/test surface).
  size_t fastpath_entries() const { return trails_.attached_flows(); }
  /// Packets the fast path has bypassed since construction.
  uint64_t fastpath_bypassed() const { return bypassed_total_; }

  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::AlertLedger& ledger() const { return ledger_; }

  /// Deterministic snapshot of every instrument. Refreshes the component
  /// stat mirrors (distiller/trails/event-generator/rule-state gauges)
  /// first, which is why it is non-const.
  obs::Snapshot metrics_snapshot();

  /// Forced sweep: retire every session record whose newest footprint is
  /// older than cutoff, whatever its retention (on_packet retires records
  /// on packet time by itself). The id of every record that went is
  /// appended to `retired` when given.
  void expire_idle(SimTime cutoff, std::vector<SessionId>* retired = nullptr);

  // --- Session and principal migration (fleet churn handoff) ------------
  // A session's complete engine-side state is its record (trails with their
  // arena, event state, rule state) plus its media bindings.

  bool has_session(const SessionId& session) const { return trails_.has_session(session); }
  /// Detach everything this engine knows about `session`. Invalid (and the
  /// engine unchanged) when the session does not exist here.
  TrailManager::ExtractedSession extract_session(const SessionId& session) {
    return trails_.extract_session(session);
  }
  /// Adopt a session extracted from another engine with the same ruleset
  /// (rule state is indexed by rule position). Precondition:
  /// !has_session(moved.id). Creation counters are NOT incremented — across
  /// a sharded engine the session was created once.
  void install_session(TrailManager::ExtractedSession&& moved) {
    trails_.install_session(std::move(moved));
  }

  /// A principal's complete engine-side state is its record (rule state
  /// and registered locations); it moves the same way.
  bool has_principal(std::string_view aor) const { return trails_.has_principal(aor); }
  TrailManager::ExtractedPrincipal extract_principal(std::string_view aor) {
    return trails_.extract_principal(aor);
  }
  /// Precondition: !has_principal(moved.aor).
  void install_principal(TrailManager::ExtractedPrincipal&& moved) {
    trails_.install_principal(std::move(moved));
  }

 private:
  /// Interned once per rule at registration; indexed parallel to rules_.
  struct RuleInstruments {
    obs::Counter* events_seen = nullptr;
    obs::Counter* alerts = nullptr;
    obs::Gauge* state_entries = nullptr;
  };

  void intern_pipeline_instruments();
  RuleInstruments intern_rule_instruments(const Rule& rule);
  void rebuild_subscriber_index();
  /// Mirror the component-kept stats into registry cells (snapshot path).
  void sync_component_stats();

  /// Wall-clock stage laps of one packet (engine.cc). The untimed
  /// instantiation reads no clock.
  template <bool kTimed>
  class StageTimer;

  /// Engine-level switch for the bypass: configured on, no installed rule
  /// interested in steady-state media, and the per-packet-event ablation
  /// off.
  bool fastpath_on() const {
    return config_.fastpath.enabled && fastpath_rules_ok_ &&
           !config_.events.emit_per_packet_events;
  }
  /// One inspected packet through the bypass or the full pipeline, timed
  /// when it is a sample.
  template <bool kTimed>
  VerdictAction process(const pkt::Packet& packet);
  /// Bypass one packet: peek it, find its attached flow record, step it in
  /// place. Returns false, having changed nothing, when the packet needs
  /// the full pipeline (the attempt is then charged to the distill stage).
  template <bool kTimed>
  bool bypass(const pkt::Packet& packet, VerdictAction& decision, StageTimer<kTimed>& timer);
  /// The full pipeline for one inspected packet.
  template <bool kTimed>
  VerdictAction inspect(const pkt::Packet& packet, StageTimer<kTimed>& timer);
  /// Record one sample's whole time and draw the gap to the next sample.
  void record_sample(uint64_t ns);
  /// Deliver scratch_events_ to their subscribed rules.
  void dispatch_events();
  /// The packet's enforcement decision: standing state, escalated by any
  /// verdict its own processing emitted.
  VerdictAction decide(uint64_t src_k, const Trail& trail, uint64_t principal_k, SimTime now);

  EngineConfig config_;
  obs::MetricsRegistry registry_;
  Distiller distiller_;
  TrailManager trails_;
  EventGenerator events_;
  std::vector<RulePtr> rules_;
  std::vector<RuleInstruments> rule_inst_;
  /// Per-EventType list of rule indices subscribed to it.
  std::vector<uint32_t> subscribers_[kEventTypeCount];
  std::function<void(const Event&)> event_callback_;
  std::function<void(const Verdict&)> verdict_callback_;
  AlertSink sink_;
  VerdictSink verdicts_;
  std::unique_ptr<Enforcer> enforcer_;
  obs::AlertLedger ledger_;
  std::vector<Event> scratch_events_;

  bool fastpath_rules_ok_ = false;  // no rule wants steady-state media
  /// Work the bypass skipped, added to the component-stat mirrors at sync
  /// time so the pipeline counters read the same with the bypass on or off
  /// (every bypassed packet *was* distilled, routed and processed, as far
  /// as the totals are concerned).
  uint64_t bypassed_total_ = 0;
  uint64_t bypassed_bound_ = 0;
  uint64_t bypassed_unbound_ = 0;

  /// Inspected packets until the next sample, this one included. With
  /// timing off it starts at the maximum and never reaches zero in practice.
  uint64_t timing_countdown_ = 1;
  /// The gap the next sample stands for: its weight in processing_ns.
  uint64_t timing_weight_ = 1;
  uint64_t timing_rng_ = 0x9e3779b97f4a7c15ULL;  // xorshift64 state

  // Hot-path instruments (registry-owned cells).
  obs::Counter* packets_seen_ = nullptr;
  obs::Counter* packets_filtered_ = nullptr;
  obs::Counter* packets_inspected_ = nullptr;
  obs::Counter* events_total_ = nullptr;
  obs::Counter* processing_ns_ = nullptr;
  /// Per-action decision counters; interned only when enforcement is on,
  /// so detection-only engines expose no prevention cells.
  obs::Counter* packet_verdicts_[kVerdictActionCount] = {};
  obs::Counter* event_type_counters_[kEventTypeCount] = {};
  obs::Histogram* stage_distill_ = nullptr;
  obs::Histogram* stage_route_ = nullptr;
  obs::Histogram* stage_events_ = nullptr;
  obs::Histogram* stage_rules_ = nullptr;
  /// Registered only when stage timing is on (stage_fastpath_ also needs
  /// the fast path configured, stage_enforce_ an enforcer), so the
  /// deterministic expositions carry no extra lines.
  obs::Histogram* stage_fastpath_ = nullptr;
  obs::Histogram* stage_enforce_ = nullptr;
  obs::Histogram* decision_ns_ = nullptr;
  /// Fast-path instruments; registered only when the fast path is
  /// configured on, so disabled engines expose no extra lines.
  obs::Counter* fastpath_hits_ = nullptr;
  obs::Counter* fastpath_misses_ = nullptr;

  // Snapshot-synced mirrors (see sync_component_stats()).
  obs::Counter* alerts_total_ = nullptr;
  obs::Counter* alerts_dropped_ = nullptr;
  obs::Gauge* alerts_retained_ = nullptr;
  obs::Counter* ledger_recorded_ = nullptr;
  obs::Counter* ledger_dropped_ = nullptr;
  obs::Gauge* ledger_size_ = nullptr;
};

}  // namespace scidive::core
