#include "scidive/rules.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#include "common/strings.h"
#include "ruledsl/loader.h"

namespace scidive::core {

void Stateless4xxRule::on_event(const Event& event, RuleContext& ctx) const {
  if (event.type != EventType::kSip4xxSeen) return;
  State* state = ctx.engine_slot<State>();
  if (state == nullptr) return;
  std::deque<SimTime>& recent = state->recent_4xx;
  recent.push_back(event.time);
  SimTime horizon = event.time - kWindow;
  while (!recent.empty() && recent.front() < horizon) recent.pop_front();
  if (static_cast<int>(recent.size()) >= kThreshold &&
      (state->last_alert < 0 || event.time - state->last_alert > kWindow)) {
    state->last_alert = event.time;
    ctx.raise(std::string(name()), Severity::kWarning, event,
              str::format("%zu 4xx responses within %.1fs (any session)", recent.size(),
                          to_sec(kWindow)));
  }
}

RuleStateSpec Stateless4xxRule::state_spec() const {
  return {.key = StateKey::kEngine,
          .size = sizeof(State),
          .align = alignof(State),
          .init = [](void* area, const void*) { ::new (area) State(); },
          .destroy = [](void* area, const void*) { std::destroy_at(static_cast<State*>(area)); },
          .arg = nullptr};
}

void DirectTrailScanByeRule::on_event(const Event& event, RuleContext& ctx) const {
  if (event.type != EventType::kRtpPacketSeen) return;
  // The rule's presence bit in a session's record marks a session it
  // alerted on; its area is empty.
  if (ctx.holds_session_state(event.session)) return;
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

  if (ctx.session_slot<void>(event.session) == nullptr) return;
  ctx.raise(std::string(name()), Severity::kCritical, event,
            str::format("orphan RTP from %s %lld us after BYE (direct trail scan)",
                        event.endpoint.to_string().c_str(),
                        static_cast<long long>(event.time - bye_time)));
}

RulesetPtr default_ruleset(const RulesConfig& config) {
  static std::mutex mu;
  static std::map<RulesConfig, RulesetPtr> compiled_once;
  std::lock_guard lock(mu);
  RulesetPtr& rules = compiled_once[config];
  if (rules != nullptr) return rules;
  auto compiled = ruledsl::compile_default_ruleset(config);
  if (!compiled.ok()) {
    // The text is part of the build and a test compiles it, so this is a
    // broken build, not an input error.
    std::fprintf(stderr, "scidive: the embedded default ruleset does not compile: %s\n",
                 compiled.error().to_string().c_str());
    std::abort();
  }
  rules = ruledsl::make_ruleset(compiled.value());
  return rules;
}

std::vector<RulePtr> make_default_ruleset(const RulesConfig& config) {
  return default_ruleset(config)->rules();
}

}  // namespace scidive::core
