#include "scidive/rules.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "ruledsl/loader.h"

namespace scidive::core {

void Stateless4xxRule::on_event(const Event& event, RuleContext& ctx) {
  if (event.type != EventType::kSip4xxSeen) return;
  recent_4xx_.push_back(event.time);
  SimTime horizon = event.time - kWindow;
  while (!recent_4xx_.empty() && recent_4xx_.front() < horizon) recent_4xx_.pop_front();
  if (static_cast<int>(recent_4xx_.size()) >= kThreshold &&
      (last_alert < 0 || event.time - last_alert > kWindow)) {
    last_alert = event.time;
    ctx.raise(std::string(name()), Severity::kWarning, event,
              str::format("%zu 4xx responses within %.1fs (any session)",
                          recent_4xx_.size(), to_sec(kWindow)));
  }
}

void DirectTrailScanByeRule::on_event(const Event& event, RuleContext& ctx) {
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

std::vector<RulePtr> make_default_ruleset(const RulesConfig& config) {
  auto compiled = ruledsl::compile_default_ruleset(config);
  if (!compiled.ok()) {
    // The text is part of the build and a test compiles it, so this is a
    // broken build, not an input error.
    std::fprintf(stderr, "scidive: the embedded default ruleset does not compile: %s\n",
                 compiled.error().to_string().c_str());
    std::abort();
  }
  return ruledsl::make_rules(compiled.value());
}

}  // namespace scidive::core
