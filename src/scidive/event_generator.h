// The Event Generator (§3.1): stateful, per-session processors that map
// footprints to Events. All multi-packet aggregation lives here — the
// mirrored dialog state machine, the post-BYE/post-re-INVITE media monitors
// (the analysis window "m" of §4.3), RTP sequence/jitter tracking and the
// SIP<->accounting correlation — so the Ruleset is only triggered "at the
// moment of interest".
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/symbol.h"
#include "rtp/stats.h"
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
  uint64_t sessions_expired = 0;  // session states dropped by expire_idle
};

/// One media endpoint's RTP state within a session, in both roles a flow
/// can give it.
struct RtpEndpointState {
  // As a destination: the consecutive-packet view of §4.2.4.
  bool seq_seen = false;
  uint16_t last_seq = 0;
  // As a source: stream start, jitter estimate and the one-shot alarm.
  bool source_seen = false;
  bool jitter_alarmed = false;
  rtp::RtpStreamStats stats{8000};
};

/// A watch on a media source after signaling said it should go quiet.
struct MediaMonitor {
  bool active = false;
  bool fired = false;
  SimTime started = 0;
  pkt::Endpoint watched;  // media endpoint that must fall silent
  /// The session peer's media endpoint: an orphan flow is src==watched
  /// AND dst==expected_dst, so concurrent calls sharing the watched
  /// port (same softphone, different conversation) don't false-alarm.
  std::optional<pkt::Endpoint> expected_dst;
  EventType emit = EventType::kRtpAfterBye;
  std::string claimed_aor;  // who the signaling said was leaving
};

/// One session's aggregation state. Node-stable (the generator holds it
/// behind a pointer): flow records point at it.
struct EventSessionState {
  // What every RTP packet touches comes first: the idle clock and the
  // monitors share the record's first cache line.
  SimTime last_touched = 0;
  /// Active orphan-media watches (SIP BYE, re-INVITE, RTCP BYE can all be
  /// pending at once). Bounded: oldest evicted beyond kMaxMonitors.
  std::vector<MediaMonitor> monitors;
  // Mirrored dialog.
  bool invite_seen = false;
  bool established = false;
  bool torn_down = false;
  std::string caller_aor, callee_aor;
  std::string caller_tag, callee_tag;
  std::optional<pkt::Endpoint> caller_media, callee_media;
  std::optional<pkt::Endpoint> caller_signaling;  // where the INVITE/Setup came from
  std::optional<pkt::Endpoint> callee_signaling;  // where the 200/Connect came from
  // Media-plane tracking, one node-stable record per endpoint: a flow
  // record points at its two endpoints' records, so an RTP packet steps
  // them without a lookup.
  FlatMap<pkt::Endpoint, std::unique_ptr<RtpEndpointState>> rtp_endpoints;
  // Registration / auth tracking.
  bool last_register_had_auth = false;
  std::string last_auth_response;
  /// Candidate location from the latest REGISTER in this session —
  /// committed to the location mirror only when the registrar says 200
  /// (learning from unauthenticated requests would let an attacker poison
  /// the mirror by spraying REGISTERs).
  std::string pending_register_aor;
  std::optional<pkt::Ipv4Address> pending_register_addr;
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
  size_t tracked_sessions() const { return sessions_.size(); }

  /// Drop per-session state not touched since `cutoff`.
  size_t expire_idle(SimTime cutoff);

  using SessionState = EventSessionState;

  /// Migration (sharded-engine rebalance): detach this session's
  /// aggregation state. The state holds endpoints, strings and times — no
  /// interner symbols — so it transplants across engines as-is. The
  /// per-principal registration mirror is NOT per-session state and never
  /// migrates (principal-routed sessions are pinned by the router).
  std::optional<SessionState> extract_session(const SessionId& session);
  /// Adopt migrated state under this engine's interning of `session`.
  void install_session(const SessionId& session, SessionState state);

  /// The steady-state RTP step, on the state `flow` points at: the §4.2.4
  /// sequence check, stream start, the jitter estimate and the orphan-media
  /// monitors. The slow path runs it for every RTP footprint; the engine's
  /// bypass runs it for peeked packets of attached flows. Appends any
  /// events to `out`.
  void step_rtp(const MediaFlow& flow, const SessionId& session, const RtpPeek& rtp,
                std::vector<Event>& out);

 private:
  static constexpr size_t kMaxMonitors = 4;

  void process_sip(const Footprint& fp, const SipFootprint& sip, SessionState& state,
                   const SessionId& session, std::vector<Event>& out);
  void process_rtcp(const Footprint& fp, const RtcpFootprint& rtcp, SessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_h225(const Footprint& fp, const H225Footprint& h225, SessionState& state,
                    const SessionId& session, std::vector<Event>& out);
  void process_rtp(const Footprint& fp, const RtpFootprint& rtp, SessionState& state,
                   const Trail& trail, std::vector<Event>& out);
  void process_acc(const Footprint& fp, const AccFootprint& acc, SessionState& state,
                   const SessionId& session, std::vector<Event>& out);

  void start_monitor(SessionState& state, SimTime now, pkt::Endpoint watched,
                     std::optional<pkt::Endpoint> expected_dst, EventType emit,
                     std::string claimed_aor);
  void emit(std::vector<Event>& out, Event event);

  TrailManager& trails_;
  EventGeneratorConfig config_;
  /// Keyed by the TrailManager's interned session symbol: the per-footprint
  /// state lookup is one integer hash instead of a string-keyed tree walk —
  /// the dominant per-packet cost at thousands of concurrent sessions.
  FlatMap<Symbol, std::unique_ptr<SessionState>> sessions_;
  /// Passive mirror of the registrar's location service: AOR -> addresses
  /// learned from observed REGISTER Contacts. Feeds the billed-party check.
  std::map<std::string, std::set<pkt::Ipv4Address>> registered_locations_;
  EventGeneratorStats stats_;
};

}  // namespace scidive::core
