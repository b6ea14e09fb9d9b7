#include "scidive/event_generator.h"

#include <cstdlib>

#include "common/strings.h"
#include "rtp/rtp.h"

namespace scidive::core {

std::string_view event_type_name(EventType t) {
  switch (t) {
    case EventType::kSipInviteSeen: return "SipInviteSeen";
    case EventType::kSipReinviteSeen: return "SipReinviteSeen";
    case EventType::kSipSessionEstablished: return "SipSessionEstablished";
    case EventType::kSipByeSeen: return "SipByeSeen";
    case EventType::kSipMalformed: return "SipMalformed";
    case EventType::kSip4xxSeen: return "Sip4xxSeen";
    case EventType::kSipRegisterSeen: return "SipRegisterSeen";
    case EventType::kSipAuthChallenge: return "SipAuthChallenge";
    case EventType::kSipAuthFailure: return "SipAuthFailure";
    case EventType::kImMessageSeen: return "ImMessageSeen";
    case EventType::kRtpPacketSeen: return "RtpPacketSeen";
    case EventType::kRtpStreamStarted: return "RtpStreamStarted";
    case EventType::kRtpSeqJump: return "RtpSeqJump";
    case EventType::kRtpUnexpectedSource: return "RtpUnexpectedSource";
    case EventType::kRtpAfterBye: return "RtpAfterBye";
    case EventType::kRtpAfterReinvite: return "RtpAfterReinvite";
    case EventType::kRtcpByeSeen: return "RtcpByeSeen";
    case EventType::kRtpAfterRtcpBye: return "RtpAfterRtcpBye";
    case EventType::kRtpJitter: return "RtpJitter";
    case EventType::kNonRtpOnMediaPort: return "NonRtpOnMediaPort";
    case EventType::kAccStartSeen: return "AccStartSeen";
    case EventType::kAccUnmatched: return "AccUnmatched";
    case EventType::kAccBilledPartyAbsent: return "AccBilledPartyAbsent";
  }
  return "?";
}

void EventGenerator::emit(std::vector<Event>& out, Event event) {
  ++stats_.events_emitted;
  out.push_back(std::move(event));
}

void EventGenerator::process(const Footprint& fp, const Trail& trail,
                             std::vector<Event>& out) {
  ++stats_.footprints_processed;
  const SessionId& session = trail.key().session;
  EventSessionState& state = trails_.session_state(trail);

  switch (fp.protocol) {
    case Protocol::kSip:
      if (const SipFootprint* sip = fp.sip()) {
        process_sip(fp, *sip, state, session, out);
        if (!sip->call_id.empty()) track_lifecycle(*sip, state, trail);
      }
      break;
    case Protocol::kRtp:
      if (const RtpFootprint* rtp = fp.rtp()) process_rtp(fp, *rtp, state, trail, out);
      break;
    case Protocol::kAcc:
      if (const AccFootprint* acc = fp.acc()) process_acc(fp, *acc, state, session, out);
      break;
    case Protocol::kRtcp:
      if (const RtcpFootprint* rtcp = fp.rtcp()) process_rtcp(fp, *rtcp, state, session, out);
      break;
    case Protocol::kH225:
      if (const H225Footprint* h225 = fp.h225()) {
        process_h225(fp, *h225, state, session, out);
        if (h225->is_release) set_closed(state, trail, true);
        if (h225->is_setup) set_closed(state, trail, false);
      }
      break;
    case Protocol::kRas:
      break;  // RAS footprints feed trails; admission anomalies are future work
    case Protocol::kUnknown:
      // Garbage aimed at a known session's media endpoint is a signal.
      if (trail.key().session.rfind("flow:", 0) != 0) {
        emit(out, Event{EventType::kNonRtpOnMediaPort, session, fp.time, "", fp.src, 0,
                        "undecodable bytes on media port"});
      }
      break;
  }
}

void EventGenerator::set_closed(EventSessionState& state, const Trail& trail, bool closed) {
  const bool closing = closed && !state.closed;
  state.closed = closed;
  if (closing) trails_.note_closed(trail);
}

void EventGenerator::track_lifecycle(const SipFootprint& sip, EventSessionState& state,
                                     const Trail& trail) {
  if (sip.is_request) {
    // A CANCEL only asks: the INVITE's final answer (487, or a 200 that
    // sets the call up after all) decides, and that answer may come long
    // after the CANCEL.
    if (sip.method == "BYE") {
      set_closed(state, trail, true);
    } else if (sip.method != "ACK" && sip.method != "CANCEL") {
      set_closed(state, trail, false);
    }
    return;
  }
  if (sip.status_code < 200) return;
  // A failed re-INVITE leaves its dialog up, and so does an in-dialog
  // transaction's answer; an out-of-dialog transaction ends with its final.
  const bool closes = sip.cseq_method == "INVITE"
                          ? sip.status_code >= 300 && !state.established
                          : !state.invite_seen;
  if (closes) set_closed(state, trail, true);
}

void EventGenerator::start_monitor(EventSessionState& state, SimTime now, pkt::Endpoint watched,
                                   std::optional<pkt::Endpoint> expected_dst,
                                   EventType emit_type, std::string claimed_aor) {
  if (state.monitors.size() >= kMaxMonitors) {
    state.monitors.erase(state.monitors.begin());  // evict the oldest
  }
  state.monitors.push_back(MediaMonitor{.active = true,
                                        .fired = false,
                                        .started = now,
                                        .watched = watched,
                                        .expected_dst = expected_dst,
                                        .emit = emit_type,
                                        .claimed_aor = std::move(claimed_aor)});
  ++stats_.monitors_started;
}

void EventGenerator::process_sip(const Footprint& fp, const SipFootprint& sip,
                                 EventSessionState& state, const SessionId& session,
                                 std::vector<Event>& out) {
  if (!sip.well_formed) {
    emit(out, Event{EventType::kSipMalformed, session, fp.time, std::string(sip.from_aor), fp.src,
                    0, "malformed SIP message"});
    if (sip.call_id.empty()) return;  // nothing further to mirror
  }

  if (sip.is_request && sip.method == "INVITE") {
    if (state.established) {
      // re-INVITE: the claimed sender's media moves to the SDP endpoint.
      std::string claimed(sip.from_aor);
      std::optional<pkt::Endpoint> old_media;
      if (!state.caller_tag.empty() && sip.from_tag == state.caller_tag) {
        old_media = state.caller_media;
        if (sip.sdp_media) state.caller_media = sip.sdp_media;
      } else if (!state.callee_tag.empty() && sip.from_tag == state.callee_tag) {
        old_media = state.callee_media;
        if (sip.sdp_media) state.callee_media = sip.sdp_media;
      }
      if (sip.sdp_media) {
        trails_.bind_media_endpoint(*sip.sdp_media, session);
        emit(out, Event{EventType::kSipReinviteSeen, session, fp.time, claimed, *sip.sdp_media,
                        0, "media target refresh"});
      } else {
        emit(out, Event{EventType::kSipReinviteSeen, session, fp.time, claimed, fp.src, 0,
                        "re-INVITE without SDP"});
      }
      // §4.2.3 rule: after a re-INVITE from X, RTP from X's old endpoint
      // must stop (X moved). Orphan traffic there means the re-INVITE lied.
      if (old_media && (!sip.sdp_media || *old_media != *sip.sdp_media)) {
        std::optional<pkt::Endpoint> peer_media = (sip.from_tag == state.caller_tag)
                                                      ? state.callee_media
                                                      : state.caller_media;
        start_monitor(state, fp.time, *old_media, peer_media,
                      EventType::kRtpAfterReinvite, claimed);
      }
      return;
    }
    // Initial INVITE.
    state.invite_seen = true;
    state.caller_aor = sip.from_aor;
    state.callee_aor = sip.to_aor;
    state.caller_tag = sip.from_tag;
    state.caller_signaling = sip.contact ? sip.contact : std::optional<pkt::Endpoint>(fp.src);
    if (sip.sdp_media) {
      state.caller_media = sip.sdp_media;
      trails_.bind_media_endpoint(*sip.sdp_media, session);
    }
    emit(out, Event{EventType::kSipInviteSeen, session, fp.time, state.caller_aor, fp.src, 0,
                    "call initiation " + state.caller_aor + " -> " + state.callee_aor});
    return;
  }

  if (sip.is_response() && sip.cseq_method == "INVITE" && sip.status_code == 200) {
    if (!state.established) {
      state.established = true;
      state.callee_tag = sip.to_tag;
      if (sip.sdp_media) {
        state.callee_media = sip.sdp_media;
        trails_.bind_media_endpoint(*sip.sdp_media, session);
      }
      emit(out, Event{EventType::kSipSessionEstablished, session, fp.time,
                      std::string(sip.to_aor), fp.src, 0, "session established"});
    }
    return;
  }

  if (sip.is_request && sip.method == "BYE") {
    // Which party claims to be hanging up? Their media must fall silent.
    std::optional<pkt::Endpoint> watched;
    std::optional<pkt::Endpoint> peer_media;
    if ((!state.caller_tag.empty() && sip.from_tag == state.caller_tag) ||
        sip.from_aor == state.caller_aor) {
      watched = state.caller_media;
      peer_media = state.callee_media;
    } else if ((!state.callee_tag.empty() && sip.from_tag == state.callee_tag) ||
               sip.from_aor == state.callee_aor) {
      watched = state.callee_media;
      peer_media = state.caller_media;
    }
    std::string sender(sip.from_aor);
    emit(out, Event{EventType::kSipByeSeen, session, fp.time, sender, fp.src, 0,
                    "session teardown by " + sender});
    if (watched) {
      start_monitor(state, fp.time, *watched, peer_media, EventType::kRtpAfterBye,
                    std::move(sender));
    }
    return;
  }

  if (sip.is_request && sip.method == "REGISTER") {
    state.last_register_had_auth = sip.has_auth;
    state.last_auth_response = sip.auth_response;
    // Candidate for the location mirror; committed on the registrar's 200.
    if (!sip.from_aor.empty()) {
      state.pending_register_aor = sip.from_aor;
      state.pending_register_addr = sip.contact ? sip.contact->addr : fp.src.addr;
    }
    emit(out, Event{EventType::kSipRegisterSeen, session, fp.time, std::string(sip.from_aor),
                    fp.src, sip.has_auth ? 1 : 0, std::string(sip.auth_response)});
    return;
  }

  if (sip.is_request && sip.method == "MESSAGE") {
    std::string claimed(sip.from_aor);
    emit(out, Event{EventType::kImMessageSeen, session, fp.time, claimed, fp.src, 0,
                    "instant message claiming " + claimed});
    return;
  }

  if (sip.is_response() && sip.cseq_method == "REGISTER" && sip.status_code == 200 &&
      !state.pending_register_aor.empty() && state.pending_register_addr) {
    // Registrar accepted: commit the location to the principal's record
    // (§3.2 billed-party check; a sanctioned fake-IM source move).
    trails_.commit_location(state.pending_register_aor, *state.pending_register_addr,
                            fp.time);
    state.pending_register_aor.clear();
    state.pending_register_addr.reset();
    return;
  }

  if (sip.is_response() && sip.status_code / 100 == 4) {
    emit(out, Event{EventType::kSip4xxSeen, session, fp.time, std::string(sip.to_aor), fp.src,
                    sip.status_code, "4xx response"});
    if (sip.status_code == 401) {
      emit(out, Event{EventType::kSipAuthChallenge, session, fp.time, std::string(sip.to_aor),
                      fp.src, 0, "digest challenge"});
      if (state.last_register_had_auth) {
        // Keyed by the challenged client, not the registrar that answered:
        // a guesser is one source failing for many identities.
        emit(out, Event{EventType::kSipAuthFailure, session, fp.time, std::string(sip.to_aor),
                        fp.dst, 0, state.last_auth_response});
      }
    }
    return;
  }
}

void EventGenerator::process_rtp(const Footprint& fp, const RtpFootprint& rtp,
                                 EventSessionState& state, const Trail& trail,
                                 std::vector<Event>& out) {
  // Step the flow record the footprint was routed through, attaching the
  // session's endpoint records on the flow's first packet.
  MediaFlow* flow = trails_.find_flow(fp.src, fp.dst, Protocol::kRtp);
  if (flow->session != &state) {
    auto endpoint = [&state](const pkt::Endpoint& ep) {
      std::unique_ptr<RtpEndpointState>& rec = state.rtp_endpoints[ep];
      if (rec == nullptr) rec = std::make_unique<RtpEndpointState>();
      return rec.get();
    };
    flow->session = &state;
    flow->src = endpoint(fp.src);
    flow->dst = endpoint(fp.dst);
  }
  step_rtp(*flow, trail.key().session,
           RtpPeek{fp.src, fp.dst, rtp.ssrc, rtp.sequence, rtp.timestamp, fp.time}, out);
}

void EventGenerator::step_rtp(const MediaFlow& flow, const SessionId& session,
                              const RtpPeek& rtp, std::vector<Event>& out) {
  EventSessionState& state = *flow.session;
  if (config_.emit_per_packet_events) {
    emit(out, Event{EventType::kRtpPacketSeen, session, rtp.time, "", rtp.src,
                    static_cast<int64_t>(rtp.sequence), ""});
  }
  // Consecutive-packet sequence check at the receiving media port (§4.2.4).
  RtpEndpointState& dst = *flow.dst;
  if (dst.seq_seen) {
    int32_t gap = rtp::seq_distance(dst.last_seq, rtp.sequence);
    if (std::abs(gap) > config_.seq_jump_threshold) {
      emit(out, Event{EventType::kRtpSeqJump, session, rtp.time, "", rtp.src, gap,
                      str::format("sequence gap %d between consecutive packets", gap)});
    }
  }
  dst.seq_seen = true;
  dst.last_seq = rtp.sequence;

  // New source?
  RtpEndpointState& src = *flow.src;
  if (!src.source_seen) {
    src.source_seen = true;
    emit(out, Event{EventType::kRtpStreamStarted, session, rtp.time, "", rtp.src,
                    static_cast<int64_t>(rtp.ssrc), "rtp flow started"});
    if (state.invite_seen) {
      bool expected = (state.caller_media && state.caller_media->addr == rtp.src.addr) ||
                      (state.callee_media && state.callee_media->addr == rtp.src.addr);
      if (!expected) {
        emit(out, Event{EventType::kRtpUnexpectedSource, session, rtp.time, "", rtp.src, 0,
                        "rtp from endpoint not present in signaling"});
      }
    }
  }

  // Jitter estimate per source.
  src.stats.on_packet(rtp.sequence, rtp.timestamp, rtp.time);
  if (!src.jitter_alarmed && src.stats.packets_received() > config_.jitter_warmup_packets &&
      src.stats.jitter_ms() > config_.jitter_alarm_ms) {
    src.jitter_alarmed = true;
    emit(out, Event{EventType::kRtpJitter, session, rtp.time, "", rtp.src,
                    static_cast<int64_t>(src.stats.jitter_ms() * 1000),
                    "jitter above threshold"});
  }

  // Orphan-media monitors (the heart of the BYE / Call-Hijack rules, plus
  // the RTCP-BYE consistency check).
  for (MediaMonitor& monitor : state.monitors) {
    if (!monitor.active) continue;
    if (rtp.time - monitor.started > config_.monitor_window) {
      monitor.active = false;
      ++stats_.monitors_expired;
      continue;
    }
    if (!monitor.fired && rtp.src == monitor.watched &&
        (!monitor.expected_dst || rtp.dst == *monitor.expected_dst)) {
      monitor.fired = true;
      monitor.active = false;
      ++stats_.monitors_fired;
      emit(out, Event{monitor.emit, session, rtp.time, monitor.claimed_aor, rtp.src,
                      rtp.time - monitor.started,
                      str::format("orphan rtp %lld us after signaling",
                                  static_cast<long long>(rtp.time - monitor.started))});
    }
  }
  std::erase_if(state.monitors, [](const MediaMonitor& m) { return !m.active; });
}

void EventGenerator::process_h225(const Footprint& fp, const H225Footprint& h225,
                                  EventSessionState& state, const SessionId& session,
                                  std::vector<Event>& out) {
  // The kSip* milestone events are CMP-generic (the architecture watches
  // "call management protocols", §1) — H.225 signaling maps onto the same
  // milestones so every downstream rule works unchanged across SIP and
  // H.323. The detail field records the concrete protocol.
  if (h225.is_setup) {
    if (state.invite_seen) return;  // retransmission
    state.invite_seen = true;
    state.caller_aor = h225.calling_alias;
    state.callee_aor = h225.called_alias;
    state.caller_signaling = fp.src;
    if (h225.media) {
      state.caller_media = h225.media;
      trails_.bind_media_endpoint(*h225.media, session);
    }
    emit(out, Event{EventType::kSipInviteSeen, session, fp.time, h225.calling_alias, fp.src,
                    0,
                    "h225 setup " + h225.calling_alias + " -> " + h225.called_alias});
    return;
  }
  if (h225.is_connect) {
    if (state.established) return;
    state.established = true;
    state.callee_signaling = fp.src;
    if (h225.media) {
      state.callee_media = h225.media;
      trails_.bind_media_endpoint(*h225.media, session);
    }
    emit(out, Event{EventType::kSipSessionEstablished, session, fp.time, h225.called_alias,
                    fp.src, 0, "h225 connect"});
    return;
  }
  if (h225.is_release) {
    // Who claims to clear the call? H.225 carries no From tag; attribute by
    // the signaling address the message (claims to) come from.
    std::optional<pkt::Endpoint> watched;
    std::optional<pkt::Endpoint> peer_media;
    std::string claimed;
    if (state.caller_signaling && fp.src == *state.caller_signaling) {
      watched = state.caller_media;
      peer_media = state.callee_media;
      claimed = state.caller_aor;
    } else if (state.callee_signaling && fp.src == *state.callee_signaling) {
      watched = state.callee_media;
      peer_media = state.caller_media;
      claimed = state.callee_aor;
    }
    emit(out, Event{EventType::kSipByeSeen, session, fp.time, claimed, fp.src, 0,
                    "h225 release-complete by " + (claimed.empty() ? "?" : claimed)});
    if (watched) {
      start_monitor(state, fp.time, *watched, peer_media, EventType::kRtpAfterBye, claimed);
    }
    return;
  }
}

void EventGenerator::process_rtcp(const Footprint& fp, const RtcpFootprint& rtcp,
                                  EventSessionState& state, const SessionId& session,
                                  std::vector<Event>& out) {
  if (!rtcp.is_bye) return;  // SR/RR feed trails only
  // An RTCP BYE announces the end of the RTP stream from its sender. RTP
  // from the corresponding media endpoint (RTCP port - 1, same address)
  // continuing afterwards is inconsistent: a forged RTCP BYE or a spoofed
  // stream — a third cross-protocol chain (SIP <-> RTP <-> RTCP, §3.1).
  pkt::Endpoint media_src = fp.src;
  if (media_src.port > 0) media_src.port -= 1;
  emit(out, Event{EventType::kRtcpByeSeen, session, fp.time, "", media_src,
                  static_cast<int64_t>(rtcp.ssrc), "rtcp bye"});
  start_monitor(state, fp.time, media_src, std::nullopt, EventType::kRtpAfterRtcpBye,
                "");
}

void EventGenerator::process_acc(const Footprint& fp, const AccFootprint& acc,
                                 EventSessionState& state, const SessionId& session,
                                 std::vector<Event>& out) {
  if (!acc.is_start) return;
  emit(out, Event{EventType::kAccStartSeen, session, fp.time, acc.from_aor, fp.src, 0,
                  "billing start for " + acc.from_aor});

  // §3.2 event 2: "a transaction in the Accounting trail that has no
  // matching call initialization message in the SIP trail". Direct trail
  // inspection — the paper's slower query path, used exactly where no
  // aggregated event suffices.
  const Trail* sip_trail = trails_.find(session, Protocol::kSip);
  bool matched = false;
  if (sip_trail != nullptr) {
    matched = sip_trail->scan_newest_first([&](const Footprint& sfp) {
      const SipFootprint* sip = sfp.sip();
      return sip != nullptr && sip->is_request && sip->method == "INVITE" &&
             sip->from_aor == acc.from_aor;
    });
  }
  if (!matched) {
    emit(out, Event{EventType::kAccUnmatched, session, fp.time, acc.from_aor, fp.src, 0,
                    "billing transaction without matching SIP call initiation from " +
                        acc.from_aor});
  }

  // §3.2 event 3: the billed party's registered location must appear among
  // the session's signaling/media endpoints ("together with information from
  // DNS and SIP Location Servers, we can reconfirm that each RTP flow has a
  // corresponding legitimate call setup"). The check needs something to
  // compare against: skipped when no signaling was observed for the session
  // (a dangling CDR is condition 2's territory, not condition 3's) or when
  // the billed party never registered in our view.
  if (!state.invite_seen) return;
  if (trails_.registered_locations(acc.from_aor).empty()) return;
  auto present = [&](const std::optional<pkt::Endpoint>& ep) {
    return ep && trails_.registered_at(acc.from_aor, ep->addr).has_value();
  };
  if (!present(state.caller_media) && !present(state.callee_media) &&
      !present(state.caller_signaling)) {
    emit(out, Event{EventType::kAccBilledPartyAbsent, session, fp.time, acc.from_aor, fp.src,
                    0,
                    "billed party " + acc.from_aor +
                        " registered elsewhere; their location appears nowhere in this "
                        "session"});
  }
}

}  // namespace scidive::core
