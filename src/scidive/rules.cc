#include "scidive/rules.h"

#include <bit>

#include "common/strings.h"

namespace scidive::core {

void ByeAttackRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kRtpAfterBye) return;
  ctx.raise(std::string(name()), Severity::kCritical, event,
            str::format("orphan RTP from %s %lld us after a BYE claiming %s hung up — "
                        "forged BYE suspected",
                        event.endpoint.to_string().c_str(),
                        static_cast<long long>(event.value), event.aor.c_str()));
}

void CallHijackRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kRtpAfterReinvite) return;
  ctx.raise(std::string(name()), Severity::kCritical, event,
            str::format("RTP still flowing from %s after a re-INVITE claimed %s moved — "
                        "call hijacking suspected",
                        event.endpoint.to_string().c_str(), event.aor.c_str()));
}

void FakeImRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type == EventType::kSipRegisterSeen) {
    // Mirror the location service: a registrar update is the sanctioned
    // way for a user's address to move.
    if (!event.aor.empty()) {
      registrations_.insert_or_assign(aors_.intern(event.aor),
                                      Registration{event.endpoint.addr, event.time});
    }
    return;
  }
  if (event.type != EventType::kImMessageSeen) return;
  const Symbol aor = aors_.intern(event.aor);
  auto [hist, first] = senders_.try_emplace(aor, SenderHistory{event.endpoint, event.time,
                                                               event.time});
  SenderHistory& h = *hist;
  if (!first && h.last_source.addr != event.endpoint.addr) {
    // Sanctioned move? The claimed user re-registered from this address.
    const Registration* reg = registrations_.find(aor);
    bool registered_here = reg != nullptr && reg->addr == event.endpoint.addr &&
                           event.time - reg->at <= config_.im_registration_window;
    SimDuration since_change = event.time - h.last_change;
    if (!registered_here && since_change < config_.im_mobility_interval) {
      ctx.raise(std::string(name()), Severity::kCritical, event,
                str::format("message claiming %s came from %s but recent messages came "
                            "from %s %.1fs ago — forged instant message suspected",
                            event.aor.c_str(), event.endpoint.to_string().c_str(),
                            h.last_source.to_string().c_str(), to_sec(since_change)));
    }
    h.last_change = event.time;
    h.last_source = event.endpoint;
  }
  h.last_seen = event.time;
}

void RtpAttackRule::on_event(const Event& event, RuleContext& ctx) {
  switch (event.type) {
    case EventType::kRtpSeqJump:
      ctx.raise(std::string(name()), Severity::kCritical, event,
                str::format("sequence number jumped by %lld between consecutive RTP packets "
                            "(bound 100) — media injection suspected",
                            static_cast<long long>(event.value)));
      return;
    case EventType::kRtpUnexpectedSource:
      ctx.raise(std::string(name()), Severity::kWarning, event,
                str::format("RTP from %s which never appeared in this session's signaling",
                            event.endpoint.to_string().c_str()));
      return;
    case EventType::kNonRtpOnMediaPort:
      ctx.raise(std::string(name()), Severity::kWarning, event,
                "undecodable datagram aimed at an active media port");
      return;
    default:
      return;
  }
}

void BillingFraudRule::on_event(const Event& event, RuleContext& ctx) {
  switch (event.type) {
    case EventType::kSipMalformed:
    case EventType::kAccUnmatched:
    case EventType::kAccBilledPartyAbsent:
    case EventType::kRtpUnexpectedSource:
      break;
    default:
      return;
  }
  auto* found = ctx.session_state<Evidence>(event.session);
  if (found == nullptr) return;
  Evidence& evidence = *found;
  evidence.mask |= 1u << static_cast<uint32_t>(event.type);
  const auto count = static_cast<size_t>(std::popcount(evidence.mask));
  if (static_cast<int>(count) >= config_.billing_min_evidence && !evidence.alerted) {
    evidence.alerted = true;
    // Ascending bit order == ascending EventType order, matching the
    // ordered-set iteration this replaced byte for byte.
    std::string kinds;
    for (uint32_t bit = 0; bit < 32; ++bit) {
      if ((evidence.mask >> bit) & 1u) {
        if (!kinds.empty()) kinds += ", ";
        kinds += event_type_name(static_cast<EventType>(bit));
      }
    }
    ctx.raise(std::string(name()), Severity::kCritical, event,
              str::format("billing fraud suspected: %zu independent conditions violated (%s)",
                          count, kinds.c_str()));
  }
}

void RegisterFloodRule::on_event(const Event& event, RuleContext& ctx) {
  auto* found = ctx.session_state<SessionAuthState>(event.session);
  if (found == nullptr) return;
  SessionAuthState& state = *found;
  if (event.type == EventType::kSipRegisterSeen) {
    state.last_register_had_auth = (event.value != 0);
    return;
  }
  if (event.type != EventType::kSipAuthChallenge) return;
  if (state.last_register_had_auth) return;  // that's guessing, not flooding

  state.unauth_challenges.push_back(event.time);
  SimTime horizon = event.time - config_.flood_window;
  while (!state.unauth_challenges.empty() && state.unauth_challenges.front() < horizon) {
    state.unauth_challenges.pop_front();
  }
  if (static_cast<int>(state.unauth_challenges.size()) >= config_.flood_threshold &&
      (state.last_alert < 0 || event.time - state.last_alert > config_.flood_window)) {
    state.last_alert = event.time;
    ctx.raise(std::string(name()), Severity::kCritical, event,
              str::format("%zu unauthenticated REGISTER/401 cycles within %.1fs in one "
                          "session — DoS via repeated SIP requests",
                          state.unauth_challenges.size(), to_sec(config_.flood_window)));
  }
}

void PasswordGuessRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kSipAuthFailure) return;
  auto* found = ctx.session_state<GuessState>(event.session);
  if (found == nullptr) return;
  GuessState& state = *found;
  // detail carries the digest response of the failed attempt; attacks show
  // *different* responses ("requests with different values in the challenge
  // response field", §3.3), while a retransmitted legitimate request repeats
  // the same one.
  if (!event.detail.empty()) state.distinct_responses.insert(event.detail);
  state.failure_times.push_back(event.time);
  SimTime horizon = event.time - config_.guess_window;
  while (!state.failure_times.empty() && state.failure_times.front() < horizon) {
    state.failure_times.pop_front();
  }
  if (!state.alerted &&
      static_cast<int>(state.distinct_responses.size()) >= config_.guess_threshold &&
      static_cast<int>(state.failure_times.size()) >= config_.guess_threshold) {
    state.alerted = true;
    ctx.raise(std::string(name()), Severity::kCritical, event,
              str::format("%zu distinct failed digest responses in one session — "
                          "password brute forcing suspected",
                          state.distinct_responses.size()));
  }
}

void Stateless4xxRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kSip4xxSeen) return;
  recent_4xx_.push_back(event.time);
  SimTime horizon = event.time - config_.stateless_4xx_window;
  while (!recent_4xx_.empty() && recent_4xx_.front() < horizon) recent_4xx_.pop_front();
  if (static_cast<int>(recent_4xx_.size()) >= config_.stateless_4xx_threshold &&
      (last_alert < 0 || event.time - last_alert > config_.stateless_4xx_window)) {
    last_alert = event.time;
    ctx.raise(std::string(name()), Severity::kWarning, event,
              str::format("%zu 4xx responses within %.1fs (any session)",
                          recent_4xx_.size(), to_sec(config_.stateless_4xx_window)));
  }
}

void RtcpByeRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kRtpAfterRtcpBye) return;
  ctx.raise(std::string(name()), Severity::kCritical, event,
            str::format("RTP from %s continued %lld us after its RTCP BYE — forged RTCP "
                        "teardown or spoofed media stream",
                        event.endpoint.to_string().c_str(),
                        static_cast<long long>(event.value)));
}

void DirectTrailScanByeRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kRtpPacketSeen) return;
  // A session holds a state only once the rule alerted on it.
  std::unique_ptr<RuleSessionState>* alerted = ctx.session_slot(event.session);
  if (alerted == nullptr || *alerted != nullptr) return;
  const Trail* sip_trail = ctx.trails().find(event.session, Protocol::kSip);
  if (sip_trail == nullptr) return;

  // Pass 1: newest BYE before this packet, within the window.
  const SipFootprint* bye = nullptr;
  SimTime bye_time = 0;
  sip_trail->scan_newest_first([&](const Footprint& fp) {
    const SipFootprint* sip = fp.sip();
    if (sip == nullptr || !sip->is_request || sip->method != "BYE") return false;
    if (fp.time > event.time || event.time - fp.time > window_) return false;
    bye = sip;
    bye_time = fp.time;
    return true;
  });
  if (bye == nullptr) return;

  // Pass 2: the BYE sender's announced media endpoint (their most recent
  // SDP under the same tag). This is the expensive part: another full scan.
  std::optional<pkt::Endpoint> sender_media;
  sip_trail->scan_newest_first([&](const Footprint& fp) {
    const SipFootprint* sip = fp.sip();
    if (sip == nullptr || !sip->sdp_media) return false;
    bool from_sender = (sip->is_request && !bye->from_tag.empty() &&
                        sip->from_tag == bye->from_tag) ||
                       (sip->is_response() && !bye->from_tag.empty() &&
                        sip->to_tag == bye->from_tag);
    if (!from_sender) return false;
    sender_media = sip->sdp_media;
    return true;
  });
  if (!sender_media || event.endpoint != *sender_media) return;

  *alerted = std::make_unique<RuleSessionState>();
  ctx.raise(std::string(name()), Severity::kCritical, event,
            str::format("orphan RTP from %s %lld us after BYE (direct trail scan)",
                        event.endpoint.to_string().c_str(),
                        static_cast<long long>(event.time - bye_time)));
}

void SpitGraylistRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kSipInviteSeen || event.aor.empty()) return;
  const Symbol caller = aors_.intern(event.aor);
  CallerWindow& w = callers_[caller];
  if (w.attempts == 0 || event.time - w.window_start > config_.spit_window) {
    // Tumbling window: the first attempt (or the first after the window
    // lapsed) opens a fresh one. Mirrors spit_graylist.sdr exactly.
    w.window_start = event.time;
    w.attempts = 0;
    w.flagged = false;
  }
  ++w.attempts;
  if (!w.flagged && w.attempts >= config_.spit_call_threshold) {
    w.flagged = true;
    std::string message = str::format(
        "%lld call attempts from %s within %.0fs — SPIT campaign suspected, "
        "graylisting caller",
        static_cast<long long>(w.attempts), event.aor.c_str(), to_sec(config_.spit_window));
    ctx.raise(std::string(name()), Severity::kWarning, event, message);
    ctx.verdict(std::string(name()), VerdictAction::kRateLimit, event, std::move(message));
  }
}

std::vector<RulePtr> make_default_ruleset(const RulesConfig& config) {
  std::vector<RulePtr> rules;
  rules.push_back(std::make_unique<ByeAttackRule>());
  rules.push_back(std::make_unique<CallHijackRule>());
  rules.push_back(std::make_unique<FakeImRule>(config));
  rules.push_back(std::make_unique<RtpAttackRule>());
  rules.push_back(std::make_unique<RtcpByeRule>());
  rules.push_back(std::make_unique<BillingFraudRule>(config));
  rules.push_back(std::make_unique<RegisterFloodRule>(config));
  rules.push_back(std::make_unique<PasswordGuessRule>(config));
  if (config.spit_graylist) rules.push_back(std::make_unique<SpitGraylistRule>(config));
  return rules;
}

std::vector<RulePtr> make_prevention_ruleset(RulesConfig config) {
  config.spit_graylist = true;
  return make_default_ruleset(config);
}

}  // namespace scidive::core
