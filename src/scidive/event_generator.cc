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
    case EventType::kImMessageSent: return "ImMessageSent";
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
  // Managed trails carry their interned symbol; directly-constructed trails
  // (tests) intern on the fly through the manager's shared table.
  Symbol sym = trail.sym();
  if (sym == kInvalidSymbol) sym = trails_.symbols().intern(session);
  SessionState& state = sessions_[sym];
  state.last_touched = fp.time;
  const uint64_t monitors_before = stats_.monitors_started;

  switch (fp.protocol) {
    case Protocol::kSip:
      if (const SipFootprint* sip = fp.sip()) process_sip(fp, *sip, state, session, out);
      break;
    case Protocol::kRtp:
      if (const RtpFootprint* rtp = fp.rtp()) process_rtp(fp, *rtp, state, session, out);
      break;
    case Protocol::kAcc:
      if (const AccFootprint* acc = fp.acc()) process_acc(fp, *acc, state, session, out);
      break;
    case Protocol::kRtcp:
      if (const RtcpFootprint* rtcp = fp.rtcp()) process_rtcp(fp, *rtcp, state, session, out);
      break;
    case Protocol::kH225:
      if (const H225Footprint* h225 = fp.h225()) process_h225(fp, *h225, state, session, out);
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
  if (stats_.monitors_started != monitors_before) watched_.record(sym);
}

void EventGenerator::start_monitor(SessionState& state, SimTime now, pkt::Endpoint watched,
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
                                 SessionState& state, const SessionId& session,
                                 std::vector<Event>& out) {
  if (!sip.well_formed) {
    emit(out, Event{EventType::kSipMalformed, session, fp.time, sip.from_aor, fp.src, 0,
                    "malformed SIP message"});
    if (sip.call_id.empty()) return;  // nothing further to mirror
  }

  if (sip.is_request && sip.method == "INVITE") {
    if (state.established) {
      // re-INVITE: the claimed sender's media moves to the SDP endpoint.
      std::string claimed = sip.from_aor;
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
    emit(out, Event{EventType::kSipInviteSeen, session, fp.time, sip.from_aor, fp.src, 0,
                    "call initiation " + sip.from_aor + " -> " + sip.to_aor});
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
      emit(out, Event{EventType::kSipSessionEstablished, session, fp.time, sip.to_aor, fp.src,
                      0, "session established"});
    }
    return;
  }

  if (sip.is_request && sip.method == "BYE") {
    state.torn_down = true;
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
    emit(out, Event{EventType::kSipByeSeen, session, fp.time, sip.from_aor, fp.src, 0,
                    "session teardown by " + sip.from_aor});
    if (watched) {
      start_monitor(state, fp.time, *watched, peer_media, EventType::kRtpAfterBye,
                    sip.from_aor);
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
    emit(out, Event{EventType::kSipRegisterSeen, session, fp.time, sip.from_aor, fp.src,
                    sip.has_auth ? 1 : 0, sip.auth_response});
    return;
  }

  if (sip.is_request && sip.method == "MESSAGE") {
    emit(out, Event{EventType::kImMessageSeen, session, fp.time, sip.from_aor, fp.src, 0,
                    "instant message claiming " + sip.from_aor});
    return;
  }

  if (sip.is_response() && sip.cseq_method == "REGISTER" && sip.status_code == 200 &&
      !state.pending_register_aor.empty() && state.pending_register_addr) {
    // Registrar accepted: commit the location (§3.2 billed-party check).
    registered_locations_[state.pending_register_aor].insert(*state.pending_register_addr);
    state.pending_register_aor.clear();
    state.pending_register_addr.reset();
    return;
  }

  if (sip.is_response() && sip.status_code / 100 == 4) {
    emit(out, Event{EventType::kSip4xxSeen, session, fp.time, sip.to_aor, fp.src,
                    sip.status_code, "4xx response"});
    if (sip.status_code == 401) {
      emit(out, Event{EventType::kSipAuthChallenge, session, fp.time, sip.to_aor, fp.src, 0,
                      "digest challenge"});
      if (state.last_register_had_auth) {
        emit(out, Event{EventType::kSipAuthFailure, session, fp.time, sip.to_aor, fp.src, 0,
                        state.last_auth_response});
      }
    }
    return;
  }
}

void EventGenerator::process_rtp(const Footprint& fp, const RtpFootprint& rtp,
                                 SessionState& state, const SessionId& session,
                                 std::vector<Event>& out) {
  if (config_.emit_per_packet_events) {
    emit(out, Event{EventType::kRtpPacketSeen, session, fp.time, "", fp.src,
                    static_cast<int64_t>(rtp.sequence), ""});
  }
  // Consecutive-packet sequence check at the receiving media port (§4.2.4).
  auto [last_seq, first_at_dst] = state.last_seq_by_dst.try_emplace(fp.dst, rtp.sequence);
  if (!first_at_dst) {
    int32_t gap = rtp::seq_distance(*last_seq, rtp.sequence);
    if (std::abs(gap) > config_.seq_jump_threshold) {
      emit(out, Event{EventType::kRtpSeqJump, session, fp.time, "", fp.src, gap,
                      str::format("sequence gap %d between consecutive packets", gap)});
    }
    *last_seq = rtp.sequence;
  }

  // New source?
  if (state.rtp_sources_seen.insert(fp.src)) {
    emit(out, Event{EventType::kRtpStreamStarted, session, fp.time, "", fp.src,
                    static_cast<int64_t>(rtp.ssrc), "rtp flow started"});
    if (state.invite_seen) {
      bool expected = (state.caller_media && state.caller_media->addr == fp.src.addr) ||
                      (state.callee_media && state.callee_media->addr == fp.src.addr);
      if (!expected) {
        emit(out, Event{EventType::kRtpUnexpectedSource, session, fp.time, "", fp.src, 0,
                        "rtp from endpoint not present in signaling"});
      }
    }
  }

  // Jitter estimate per source.
  auto [src_stats, _] = state.stats_by_src.try_emplace(fp.src, rtp::RtpStreamStats(8000));
  src_stats->on_packet(rtp.sequence, rtp.timestamp, fp.time);
  if (src_stats->packets_received() > config_.jitter_warmup_packets &&
      src_stats->jitter_ms() > config_.jitter_alarm_ms &&
      !state.jitter_alarmed.contains(fp.src)) {
    state.jitter_alarmed.insert(fp.src);
    emit(out, Event{EventType::kRtpJitter, session, fp.time, "", fp.src,
                    static_cast<int64_t>(src_stats->jitter_ms() * 1000),
                    "jitter above threshold"});
  }

  // Orphan-media monitors (the heart of the BYE / Call-Hijack rules, plus
  // the RTCP-BYE consistency check).
  for (MediaMonitor& monitor : state.monitors) {
    if (!monitor.active) continue;
    if (fp.time - monitor.started > config_.monitor_window) {
      monitor.active = false;
      ++stats_.monitors_expired;
      continue;
    }
    if (!monitor.fired && fp.src == monitor.watched &&
        (!monitor.expected_dst || fp.dst == *monitor.expected_dst)) {
      monitor.fired = true;
      monitor.active = false;
      ++stats_.monitors_fired;
      emit(out, Event{monitor.emit, session, fp.time, monitor.claimed_aor, fp.src,
                      fp.time - monitor.started,
                      str::format("orphan rtp %lld us after signaling",
                                  static_cast<long long>(fp.time - monitor.started))});
    }
  }
  std::erase_if(state.monitors, [](const MediaMonitor& m) { return !m.active; });
}

void EventGenerator::process_h225(const Footprint& fp, const H225Footprint& h225,
                                  SessionState& state, const SessionId& session,
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
    state.torn_down = true;
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
                                  SessionState& state, const SessionId& session,
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
                                 SessionState& state, const SessionId& session,
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
  auto locations = registered_locations_.find(acc.from_aor);
  if (locations == registered_locations_.end()) return;
  auto present = [&](const std::optional<pkt::Endpoint>& ep) {
    return ep && locations->second.contains(ep->addr);
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

std::optional<EventGenerator::SessionState> EventGenerator::extract_session(
    const SessionId& session) {
  auto sym = trails_.symbols().find(session);
  if (!sym) return std::nullopt;
  SessionState* state = sessions_.find(*sym);
  if (state == nullptr) return std::nullopt;
  SessionState out = std::move(*state);
  sessions_.erase(*sym);
  return out;
}

void EventGenerator::install_session(const SessionId& session, SessionState state) {
  const Symbol sym = trails_.symbols().intern(session);
  // Adopted state may carry live monitors this engine has never seen arm.
  if (!state.monitors.empty()) watched_.record(sym);
  *sessions_.try_emplace(sym).first = std::move(state);
}

size_t EventGenerator::expire_idle(SimTime cutoff) {
  size_t dropped = sessions_.erase_if(
      [&](const Symbol&, const SessionState& state) { return state.last_touched < cutoff; });
  stats_.sessions_expired += dropped;
  return dropped;
}

}  // namespace scidive::core
