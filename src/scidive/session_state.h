// One session's event state (§3.1 "per-session processors"): the mirrored
// dialog, the orphan-media monitors and the per-endpoint RTP state. The
// TrailManager's session record holds it beside the record's rule-state
// block (scidive/rule_state.h: what each session-keyed rule keeps about the
// session, one area per rule), so both are created with the session's
// first trail (the block on the first rule write), move with the record on
// migration and are dropped when the record retires. The EventGenerator
// steps the event state; each rule reads and writes its own area through
// the RuleContext.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "pkt/addr.h"
#include "rtp/stats.h"
#include "scidive/event.h"

namespace scidive::core {

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

/// One session's aggregation state. Node-stable (the record that holds it
/// lives behind a pointer): flow records point at it.
struct EventSessionState {
  /// Active orphan-media watches (SIP BYE, re-INVITE, RTCP BYE can all be
  /// pending at once). Bounded by EventGenerator::kMaxMonitors. Every
  /// RTP packet touches them, so they come first.
  std::vector<MediaMonitor> monitors;
  // Mirrored dialog.
  bool invite_seen = false;
  bool established = false;
  /// The dialog's lifecycle as the record's retention reads it: closed by a
  /// BYE or H.225 release, by a final failure to the initial INVITE (a 487
  /// after a CANCEL included), or by a final answer to an out-of-dialog
  /// request (REGISTER, MESSAGE, ...); reopened by any later request but
  /// ACK and CANCEL.
  bool closed = false;
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

}  // namespace scidive::core
