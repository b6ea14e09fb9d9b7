#include "scidive/engine.h"

#include <algorithm>

#include "pkt/ipv4.h"
#include "rtp/rtp.h"

namespace scidive::core {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

constexpr const char* kStageHelp = "Per-stage pipeline latency in nanoseconds";

}  // namespace

template <bool kTimed>
class ScidiveEngine::StageTimer {
 public:
  StageTimer() {
    if constexpr (kTimed) start_ = mark_ = Clock::now();
  }
  /// Charge the time since the previous lap to `stage`.
  void lap(obs::Histogram* stage) {
    if constexpr (kTimed) {
      const auto now = Clock::now();
      stage->observe(ns_between(mark_, now));
      mark_ = now;
    }
  }
  /// Nanoseconds from construction to the last lap: every path ends on a
  /// lap, so this spans the whole decision without another clock read.
  uint64_t total() const { return ns_between(start_, mark_); }

 private:
  Clock::time_point start_{}, mark_{};
};

ScidiveEngine::ScidiveEngine(EngineConfig config)
    : config_(std::move(config)),
      distiller_(config_.distiller),
      trails_(config_.max_footprints_per_trail),
      events_(trails_, config_.events),
      sink_(config_.obs.alert_capacity),
      verdicts_(config_.enforce.verdict_capacity),
      ledger_(config_.obs.ledger_capacity) {
  // A packet rarely yields more than a handful of events; reserving once
  // keeps the per-packet clear()/push_back cycle allocation-free.
  scratch_events_.reserve(16);
  intern_pipeline_instruments();
  if (!config_.obs.time_stages) timing_countdown_ = UINT64_MAX;
  if (config_.enforce.mode != EnforcementMode::kOff) {
    enforcer_ = std::make_unique<Enforcer>(config_.enforce);
    if (config_.obs.time_stages) {
      stage_enforce_ = &registry_.histogram("scidive_stage_ns", kStageHelp,
                                            obs::latency_ns_bounds(), {{"stage", "enforce"}});
    }
    for (size_t i = 0; i < kVerdictActionCount; ++i) {
      packet_verdicts_[i] = &registry_.counter(
          "scidive_packet_verdicts_total", "Per-packet enforcement decisions, by action",
          {{"action", std::string(verdict_action_name(static_cast<VerdictAction>(i)))}});
    }
  }
  // Per-(action, rule) verdict attribution. Cells register lazily on the
  // first verdict a rule emits, so detection-only runs expose no lines.
  verdicts_.set_callback([this](const Verdict& v) {
    registry_
        .counter("scidive_verdicts_total", "Verdicts emitted by rules, by action and rule",
                 {{"action", std::string(verdict_action_name(v.action))}, {"rule", v.rule}})
        .inc();
    if (verdict_callback_) verdict_callback_(v);
  });
  set_rules(default_ruleset(config_.rules));
}

void ScidiveEngine::intern_pipeline_instruments() {
  packets_seen_ =
      &registry_.counter("scidive_packets_seen_total", "Packets offered to the engine tap");
  packets_filtered_ = &registry_.counter("scidive_packets_filtered_total",
                                         "Packets outside the home-address scope");
  packets_inspected_ = &registry_.counter("scidive_packets_inspected_total",
                                          "Packets that entered the detection pipeline");
  events_total_ =
      &registry_.counter("scidive_events_total", "Events emitted by the event generator");
  processing_ns_ = &registry_.counter(
      "scidive_processing_ns_total",
      "Wall-clock nanoseconds spent inside the pipeline (0 when stage timing is off)");
  for (size_t i = 0; i < kEventTypeCount; ++i) {
    event_type_counters_[i] = &registry_.counter(
        "scidive_events_by_type_total", "Events emitted, by event type",
        {{"type", std::string(event_type_name(static_cast<EventType>(i)))}});
  }
  const auto bounds = obs::latency_ns_bounds();
  stage_distill_ =
      &registry_.histogram("scidive_stage_ns", kStageHelp, bounds, {{"stage", "distill"}});
  stage_route_ =
      &registry_.histogram("scidive_stage_ns", kStageHelp, bounds, {{"stage", "route"}});
  stage_events_ =
      &registry_.histogram("scidive_stage_ns", kStageHelp, bounds, {{"stage", "events"}});
  stage_rules_ =
      &registry_.histogram("scidive_stage_ns", kStageHelp, bounds, {{"stage", "rules"}});
  if (config_.obs.time_stages) {
    decision_ns_ = &registry_.histogram(
        "scidive_decision_ns",
        "Sampled wall-clock nanoseconds from admitting a packet to its decision", bounds);
    if (config_.fastpath.enabled) {
      stage_fastpath_ =
          &registry_.histogram("scidive_stage_ns", kStageHelp, bounds, {{"stage", "fastpath"}});
    }
  }
  alerts_total_ = &registry_.counter(
      "scidive_alerts_total", "Alerts raised by the rule engine (including retention drops)");
  alerts_dropped_ = &registry_.counter("scidive_alerts_dropped_total",
                                       "Alerts dropped from sink retention (capacity bound)");
  alerts_retained_ =
      &registry_.gauge("scidive_alerts_retained", "Alerts currently held by the sink");
  ledger_recorded_ = &registry_.counter("scidive_alert_ledger_recorded_total",
                                        "Alerts offered to the audit ledger");
  ledger_dropped_ = &registry_.counter("scidive_alert_ledger_dropped_total",
                                       "Audit records dropped at the ledger capacity bound");
  ledger_size_ =
      &registry_.gauge("scidive_alert_ledger_size", "Audit records currently in the ledger");
  if (config_.fastpath.enabled) {
    fastpath_hits_ = &registry_.counter(
        "scidive_fastpath_hits_total",
        "Packets fully handled by the established-flow fast path");
    fastpath_misses_ = &registry_.counter(
        "scidive_fastpath_misses_total",
        "Inspected packets that took the full pipeline while the fast path was on");
  }
}

ScidiveEngine::RuleInstruments ScidiveEngine::intern_rule_instruments(const Rule& rule) {
  const std::string rule_name(rule.name());
  RuleInstruments ri;
  ri.events_seen = &registry_.counter("scidive_rule_events_total",
                                      "Events delivered to the rule", {{"rule", rule_name}});
  ri.alerts = &registry_.counter("scidive_rule_alerts_total", "Alerts raised by the rule",
                                 {{"rule", rule_name}});
  ri.state_entries =
      &registry_.gauge("scidive_rule_state_entries",
                       "Per-session/per-principal state entries held by the rule",
                       {{"rule", rule_name}});
  return ri;
}

void ScidiveEngine::set_rules(RulesetPtr rules) {
  ruleset_ = std::move(rules);
  rules_ = ruleset_.get();
  // Registry cells are append-only; a dropped rule's instruments simply
  // freeze at their last values.
  rule_inst_.clear();
  for (const RulePtr& rule : rules_->rules()) rule_inst_.push_back(intern_rule_instruments(*rule));
  // Retention follows the ruleset: a closed record is kept for the window m
  // and the horizon of each rule holding state in it, an open one for the
  // longest horizon any rule has.
  RetentionPolicy retention;
  retention.closed = config_.events.monitor_window;
  retention.open = std::max(retention.closed, rules_->max_horizon());
  retention.rule_horizons = rules_->horizons();
  trails_.set_retention(std::move(retention));
  trails_.set_rule_layout(rules_->layout());
  // The flow records hold no rule state, so a ruleset change (hot reload
  // included) leaves them as they are.
  fastpath_rules_ok_ = !rules_->media_steady_state_interest();
}

VerdictAction ScidiveEngine::on_packet(const pkt::Packet& packet) {
  packets_seen_->inc();

  if (!config_.home_addresses.empty()) {
    // Cheap pre-filter on the (unverified) IP header so the endpoint IDS
    // ignores traffic that is not the monitored client's.
    auto ip = pkt::parse_ipv4(packet.data);
    bool ours = false;
    if (ip.ok()) {
      ours = config_.home_addresses.contains(ip.value().header.src) ||
             config_.home_addresses.contains(ip.value().header.dst);
    }
    if (!ours) {
      packets_filtered_->inc();
      return VerdictAction::kPass;
    }
  }
  packets_inspected_->inc();
  // Records whose retention ran out by this packet's time retire first, so
  // the packet meets exactly the records every topology would keep.
  trails_.advance(packet.timestamp);
  // One countdown and one branch: only a sample reads the clock.
  if (--timing_countdown_ != 0) [[likely]] return process<false>(packet);
  return process<true>(packet);
}

template <bool kTimed>
VerdictAction ScidiveEngine::process(const pkt::Packet& packet) {
  StageTimer<kTimed> timer;
  VerdictAction decision = VerdictAction::kPass;
  if (fastpath_on()) {
    if (!bypass(packet, decision, timer)) {
      fastpath_misses_->inc();
      decision = inspect(packet, timer);
    }
  } else {
    decision = inspect(packet, timer);
  }
  if (enforcer_ != nullptr) {
    // Every inspected packet gets exactly one decision, so the accounting
    // identity packets_inspected == Σ decisions holds (undistillable
    // packets pass: there is no identity to enforce against).
    packet_verdicts_[static_cast<size_t>(decision)]->inc();
  }
  if constexpr (kTimed) record_sample(timer.total());
  return decision;
}

void ScidiveEngine::record_sample(uint64_t ns) {
  decision_ns_->observe(ns);
  processing_ns_->inc(ns * timing_weight_);
  timing_rng_ ^= timing_rng_ << 13;
  timing_rng_ ^= timing_rng_ >> 7;
  timing_rng_ ^= timing_rng_ << 17;
  timing_weight_ = kTimingGapMin + timing_rng_ % (kTimingGapMax - kTimingGapMin + 1);
  timing_countdown_ = timing_weight_;
}

template <bool kTimed>
VerdictAction ScidiveEngine::inspect(const pkt::Packet& packet, StageTimer<kTimed>& timer) {
  VerdictAction decision = VerdictAction::kPass;
  auto fp = distiller_.distill(packet);
  timer.lap(stage_distill_);
  if (fp) {
    // Enforcement identities, captured before the footprint moves into the
    // trail: network source and signaling principal (the session comes
    // from the trail). Pure hashing — nothing here allocates.
    const SimTime pkt_time = fp->time;
    uint64_t src_k = 0, principal_k = 0;
    if (enforcer_ != nullptr) {
      if (!fp->src.addr.is_unspecified()) src_k = source_key(fp->src.addr);
      if (const SipFootprint* sip = fp->sip(); sip != nullptr && !sip->from_aor.empty()) {
        principal_k = aor_key(sip->from_aor);
      }
    }
    Trail& trail = trails_.add(std::move(*fp));
    timer.lap(stage_route_);
    scratch_events_.clear();
    events_.process(trail.back(), trail, scratch_events_);
    timer.lap(stage_events_);
    dispatch_events();
    timer.lap(stage_rules_);
    if (enforcer_ != nullptr) {
      decision = decide(src_k, trail, principal_k, pkt_time);
      timer.lap(stage_enforce_);
    }
  }
  return decision;
}

template <bool kTimed>
bool ScidiveEngine::bypass(const pkt::Packet& packet, VerdictAction& decision,
                           StageTimer<kTimed>& timer) {
  // Find the flow record by the endpoints the header names before paying
  // for the peek: a packet peek_rtp accepts has exactly these endpoints, so
  // a miss here is a miss there. Only a flow whose first packet took the
  // full pipeline has its record attached; the step then does everything
  // that pipeline would.
  const auto endpoints = Distiller::header_endpoints(packet);
  if (!endpoints) return false;
  const MediaFlow* flow = trails_.find_flow(endpoints->first, endpoints->second, Protocol::kRtp);
  if (flow == nullptr || flow->session == nullptr) return false;
  // The record's state lives in four places; their loads overlap the peek.
  __builtin_prefetch(flow->trail);
  __builtin_prefetch(flow->session);
  __builtin_prefetch(flow->src);
  __builtin_prefetch(flow->dst);
  auto peek = distiller_.peek_rtp(packet);
  if (!peek) return false;
  Trail& trail = *flow->trail;
  trail.note_bypassed(peek->time);
  ++bypassed_total_;
  ++(flow->bound ? bypassed_bound_ : bypassed_unbound_);
  fastpath_hits_->inc();
  scratch_events_.clear();
  events_.step_rtp(*flow, trail.key().session, *peek, scratch_events_);
  if (!scratch_events_.empty()) dispatch_events();
  timer.lap(stage_fastpath_);
  if (enforcer_ != nullptr) {
    decision = decide(peek->src.addr.is_unspecified() ? 0 : source_key(peek->src.addr), trail,
                      0, peek->time);
    timer.lap(stage_enforce_);
  }
  return true;
}

void ScidiveEngine::dispatch_events() {
  events_total_->inc(scratch_events_.size());
  RuleContext ctx(trails_, sink_, &ledger_, &verdicts_, enforcer_.get());
  for (const Event& event : scratch_events_) {
    event_type_counters_[static_cast<size_t>(event.type)]->inc();
    if (event_callback_) event_callback_(event);
    for (uint32_t i : rules_->subscribers(event.type)) {
      rule_inst_[i].events_seen->inc();
      const uint64_t before = sink_.total_raised();
      ctx.set_rule(i);
      rules_->rules()[i]->on_event(event, ctx);
      const uint64_t raised = sink_.total_raised() - before;
      if (raised != 0) rule_inst_[i].alerts->inc(raised);
    }
  }
}

VerdictAction ScidiveEngine::decide(uint64_t src_k, const Trail& trail, uint64_t principal_k,
                                    SimTime now) {
  // Standing state first (blocks, armed buckets), then escalate by any
  // verdict this very packet's processing emitted — the packet that
  // crossed a SPIT threshold is itself shaped, not just its successors.
  const VerdictAction standing =
      enforcer_->decide(src_k, session_key(trail.key().session), principal_k, now);
  return max_action(standing, verdicts_.take_pending());
}

VerdictAction ScidiveEngine::peek_packet(const pkt::Packet& packet) const {
  if (enforcer_ == nullptr) return VerdictAction::kPass;
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip.ok() || ip.value().header.src.is_unspecified()) return VerdictAction::kPass;
  return enforcer_->peek(source_key(ip.value().header.src), 0, 0, packet.timestamp);
}

EngineStats ScidiveEngine::stats() const {
  EngineStats s;
  s.packets_seen = packets_seen_->value();
  s.packets_filtered = packets_filtered_->value();
  s.packets_inspected = packets_inspected_->value();
  s.events = events_total_->value();
  s.alerts = sink_.total_raised();
  s.processing_ns = processing_ns_->value();
  return s;
}

void ScidiveEngine::sync_component_stats() {
  const DistillerStats& d = distiller_.stats();
  // Fast-path mirrors: a bypassed packet is a packet the full pipeline
  // *would have* distilled as RTP, routed through the flow cache into its
  // bound trail and run through the event generator (producing nothing).
  // Adding the bypass aggregates keeps every one of these families equal to
  // its fastpath-off value, so the topology oracle and the single-vs-
  // sharded parity check hold with the fast path on.
  registry_.counter("scidive_distiller_packets_total", "Packets entering the distiller")
      .sync(d.packets_in + bypassed_total_);
  registry_
      .counter("scidive_distiller_undecodable_total", "Packets that were not even IPv4+UDP")
      .sync(d.undecodable);
  registry_
      .counter("scidive_distiller_fragments_held_total",
               "Fragments consumed while their datagram stayed incomplete")
      .sync(d.fragments_held);
  registry_
      .counter("scidive_distiller_datagrams_reassembled_total",
               "Fragmented datagrams successfully reassembled")
      .sync(d.datagrams_reassembled);
  const char* kHelp = "Footprints distilled, by protocol";
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "sip"}})
      .sync(d.sip_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "rtp"}})
      .sync(d.rtp_footprints + bypassed_total_);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "rtcp"}})
      .sync(d.rtcp_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "acc"}})
      .sync(d.acc_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "h225"}})
      .sync(d.h225_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "ras"}})
      .sync(d.ras_footprints);
  registry_.counter("scidive_distiller_footprints_total", kHelp, {{"protocol", "unknown"}})
      .sync(d.unknown_footprints);
  // Parse failures by (proto, reason). Cells are registered lazily on first
  // non-zero count: clean traffic adds no instruments (and no exposition
  // lines), while a registered cell persists at its monotone value — the
  // registry dedupes, so re-registration returns the same counter.
  for (size_t p = 0; p < kParseProtoCount; ++p) {
    for (size_t r = 0; r < kParseReasonCount; ++r) {
      const uint64_t n = d.parse_errors.counts[p][r];
      if (n == 0) continue;
      registry_
          .counter("scidive_parse_errors_total",
                   "Malformed input rejected by a parser, by protocol and reason",
                   {{"proto", std::string(parse_proto_name(static_cast<ParseProto>(p)))},
                    {"reason", errc_name(static_cast<Errc>(r))}})
          .sync(n);
    }
  }

  const TrailManagerStats& t = trails_.stats();
  registry_
      .counter("scidive_trail_footprints_routed_total", "Footprints routed into trails")
      .sync(t.footprints_routed + bypassed_total_);
  registry_.counter("scidive_trail_sessions_created_total", "Sessions the trail manager created")
      .sync(t.sessions_created);
  registry_
      .counter("scidive_trail_rtp_bound_total",
               "RTP footprints bound to a session via SDP-learned endpoints")
      .sync(t.rtp_bound_to_session + bypassed_bound_);
  registry_
      .counter("scidive_trail_rtp_unbound_total",
               "RTP footprints that fell back to a synthetic flow session")
      .sync(t.rtp_unbound + bypassed_unbound_);
  registry_
      .counter("scidive_trail_flow_cache_hits_total",
               "Media packets routed through the flow cache without classify")
      .sync(t.flow_cache_hits + bypassed_total_);
  const char* kRetiredHelp =
      "Session records retired, idle past their retention: closed (the dialog had ended) or "
      "idle (still open)";
  registry_.counter("scidive_sessions_retired_total", kRetiredHelp, {{"reason", "closed"}})
      .sync(t.sessions_retired_closed);
  registry_.counter("scidive_sessions_retired_total", kRetiredHelp, {{"reason", "idle"}})
      .sync(t.sessions_retired_idle);
  registry_.gauge("scidive_trails_active", "Live trails (per-session, per-protocol)")
      .set(static_cast<int64_t>(trails_.trail_count()));
  registry_.gauge("scidive_sessions_active", "Live sessions with at least one trail")
      .set(static_cast<int64_t>(trails_.session_count()));
  registry_.gauge("scidive_media_bindings", "SDP-learned media endpoint bindings")
      .set(static_cast<int64_t>(trails_.media_binding_count()));
  registry_
      .gauge("scidive_interned_symbols", "Distinct session ids interned by the trail manager")
      .set(static_cast<int64_t>(trails_.symbols().size()));
  registry_
      .gauge("scidive_interner_bytes", "Heap bytes held by the session-id interner")
      .set(static_cast<int64_t>(trails_.symbols().bytes()));
  registry_
      .gauge("scidive_session_arena_bytes",
             "Heap bytes reserved across all per-session trail arenas")
      .set(static_cast<int64_t>(trails_.arena_bytes_reserved()));
  registry_
      .gauge("scidive_principal_records",
             "AORs with a principal record (rule state, registered locations)")
      .set(static_cast<int64_t>(trails_.principal_count()));

  const EventGeneratorStats& e = events_.stats();
  registry_
      .counter("scidive_eventgen_footprints_total", "Footprints the event generator processed")
      .sync(e.footprints_processed + bypassed_total_);
  registry_
      .counter("scidive_monitors_started_total",
               "Post-BYE/re-INVITE/RTCP-BYE media monitors armed")
      .sync(e.monitors_started);
  registry_.counter("scidive_monitors_fired_total", "Media monitors that caught orphan media")
      .sync(e.monitors_fired);
  registry_.counter("scidive_monitors_expired_total", "Media monitors that expired quietly")
      .sync(e.monitors_expired);
  registry_.gauge("scidive_tracked_sessions", "Sessions with live event-generator state")
      .set(static_cast<int64_t>(events_.tracked_sessions()));

  // A rule's state: the records (and engine block) whose presence bit it set.
  const std::vector<size_t> in_records = trails_.rule_state_counts(rules_->rules().size());
  for (size_t i = 0; i < in_records.size(); ++i) {
    rule_inst_[i].state_entries->set(static_cast<int64_t>(in_records[i]));
  }

  if (config_.fastpath.enabled) {
    registry_.gauge("scidive_fastpath_flows", "Flow records the bypass can step")
        .set(static_cast<int64_t>(trails_.attached_flows()));
  }

  alerts_total_->sync(sink_.total_raised());
  alerts_dropped_->sync(sink_.dropped());
  alerts_retained_->set(static_cast<int64_t>(sink_.count()));
  ledger_recorded_->sync(ledger_.total_recorded());
  ledger_dropped_->sync(ledger_.dropped());
  ledger_size_->set(static_cast<int64_t>(ledger_.size()));

  // Prevention-layer mirrors, registered only when enforcement is on so
  // detection-only expositions stay byte-identical to the pre-verdict
  // engine.
  if (enforcer_ != nullptr) {
    registry_
        .counter("scidive_verdicts_raised_total",
                 "Verdicts emitted by rules (including retention drops)")
        .sync(verdicts_.total_raised());
    registry_
        .counter("scidive_verdicts_dropped_total",
                 "Verdicts dropped from sink retention (capacity bound)")
        .sync(verdicts_.dropped());
    registry_.gauge("scidive_verdicts_retained", "Verdicts currently held by the sink")
        .set(static_cast<int64_t>(verdicts_.count()));

    const BlockList& bl = enforcer_->blocks();
    registry_.gauge("scidive_blocklist_entries", "Live (unexpired) block-list entries")
        .set(static_cast<int64_t>(bl.size()));
    registry_.counter("scidive_blocklist_installed_total", "Block-list entries installed")
        .sync(bl.installed_total());
    registry_.counter("scidive_blocklist_expired_total", "Block-list entries TTL-expired")
        .sync(bl.expired_total());
    registry_
        .counter("scidive_blocklist_rejected_total",
                 "Blocks rejected at the capacity bound")
        .sync(bl.rejected_total());

    const RateLimiter& rl = enforcer_->limiter();
    registry_.gauge("scidive_ratelimit_buckets", "Armed token buckets")
        .set(static_cast<int64_t>(rl.size()));
    registry_
        .gauge("scidive_ratelimit_tokens",
               "Whole tokens available across buckets (as of last refill)")
        .set(rl.stored_tokens());
    registry_.counter("scidive_ratelimit_armed_total", "Token buckets armed by verdicts")
        .sync(rl.armed_total());
    registry_
        .counter("scidive_ratelimit_denied_total",
                 "Admissions denied by an empty bucket")
        .sync(rl.denied_total());
    registry_
        .counter("scidive_ratelimit_rejected_total",
                 "Bucket arms rejected at the capacity bound")
        .sync(rl.rejected_total());
  }
}

obs::Snapshot ScidiveEngine::metrics_snapshot() {
  sync_component_stats();
  return registry_.snapshot();
}

void ScidiveEngine::expire_idle(SimTime cutoff, std::vector<SessionId>* retired) {
  trails_.expire_idle(cutoff, retired);
}

}  // namespace scidive::core
