// The Event Generator (§3.1): stateful, per-session processors that map
// footprints to Events. All multi-packet aggregation lives here — the
// mirrored dialog state machine, the post-BYE/post-re-INVITE media monitors
// (the analysis window "m" of §4.3), RTP sequence/jitter tracking and the
// SIP<->accounting correlation — so the Ruleset is only triggered "at the
// moment of interest". The generator keeps no table of its own: session
// state lives in the TrailManager's session records, and the passive mirror
// of the registrar's location service (each AOR's registered locations) in
// its principal records.
#pragma once

#include <vector>

#include "scidive/event.h"
#include "scidive/trail_manager.h"

namespace scidive::core {

struct EventGeneratorConfig {
  /// The monitoring window "m" of §4.3: how long after a BYE/re-INVITE the
  /// departed party's media endpoint is watched for orphan RTP.
  SimDuration monitor_window = msec(200);
  /// §4.2.4: sequence gap between consecutive packets that flags an attack
  /// ("empirically observed to be the bound for normal traffic" = 100).
  int32_t seq_jump_threshold = 100;
  /// Jitter estimate (ms) beyond which an RtpJitter event fires.
  double jitter_alarm_ms = 20.0;
  /// Packets before the jitter estimator is trusted.
  uint64_t jitter_warmup_packets = 50;
  /// Ablation switch: emit kRtpPacketSeen for every RTP footprint so rules
  /// can do per-packet direct trail matching (the expensive path the event
  /// abstraction exists to avoid). Off in production configurations.
  bool emit_per_packet_events = false;
};

struct EventGeneratorStats {
  uint64_t footprints_processed = 0;
  uint64_t events_emitted = 0;
  uint64_t monitors_started = 0;
  uint64_t monitors_fired = 0;
  uint64_t monitors_expired = 0;
};

class EventGenerator {
 public:
  EventGenerator(TrailManager& trails, EventGeneratorConfig config)
      : trails_(trails), config_(config) {}
  explicit EventGenerator(TrailManager& trails)
      : EventGenerator(trails, EventGeneratorConfig{}) {}

  /// Process one footprint already routed to `trail`; append any generated
  /// events to `out`.
  void process(const Footprint& fp, const Trail& trail, std::vector<Event>& out);

  const EventGeneratorStats& stats() const { return stats_; }
  /// Sessions with event state: every session record holds one.
  size_t tracked_sessions() const { return trails_.session_count(); }

  /// The steady-state RTP step, on the state `flow` points at: the §4.2.4
  /// sequence check, stream start, the jitter estimate and the orphan-media
  /// monitors. The slow path runs it for every RTP footprint; the engine's
  /// bypass runs it for peeked packets of attached flows. Appends any
  /// events to `out`.
  void step_rtp(const MediaFlow& flow, const SessionId& session, const RtpPeek& rtp,
                std::vector<Event>& out);

 private:
  static constexpr size_t kMaxMonitors = 4;

  void process_sip(const Footprint& fp, const SipFootprint& sip, EventSessionState& state,
                   const SessionId& session, std::vector<Event>& out);
  void process_rtcp(const Footprint& fp, const RtcpFootprint& rtcp, EventSessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_h225(const Footprint& fp, const H225Footprint& h225, EventSessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_rtp(const Footprint& fp, const RtpFootprint& rtp, EventSessionState& state,
                   const Trail& trail, std::vector<Event>& out);
  void process_acc(const Footprint& fp, const AccFootprint& acc, EventSessionState& state,
                   const SessionId& session, std::vector<Event>& out);

  /// The dialog mirror's lifecycle, which the record's retention reads;
  /// closing tells the trail manager, whose wake may have to come sooner.
  void track_lifecycle(const SipFootprint& sip, EventSessionState& state, const Trail& trail);
  void set_closed(EventSessionState& state, const Trail& trail, bool closed);

  void start_monitor(EventSessionState& state, SimTime now, pkt::Endpoint watched,
                     std::optional<pkt::Endpoint> expected_dst, EventType emit,
                     std::string claimed_aor);
  void emit(std::vector<Event>& out, Event event);

  TrailManager& trails_;
  EventGeneratorConfig config_;
  EventGeneratorStats stats_;
};

}  // namespace scidive::core
