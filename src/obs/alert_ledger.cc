// Compiled into scidive_core (see src/scidive/CMakeLists.txt): the ledger
// renders core vocabulary (event_type_name, protocol_name) that the generic
// scidive_obs metrics library deliberately knows nothing about.
#include "obs/alert_ledger.h"

#include <chrono>

#include "common/strings.h"

namespace scidive::obs {

namespace {

/// The protocol plane a given event type is evidence from — the trail an
/// auditor should open first when reviewing the alert.
core::Protocol event_protocol(core::EventType type) {
  using core::EventType;
  using core::Protocol;
  switch (type) {
    case EventType::kSipInviteSeen:
    case EventType::kSipReinviteSeen:
    case EventType::kSipSessionEstablished:
    case EventType::kSipByeSeen:
    case EventType::kSipMalformed:
    case EventType::kSip4xxSeen:
    case EventType::kSipRegisterSeen:
    case EventType::kSipAuthChallenge:
    case EventType::kSipAuthFailure:
    case EventType::kImMessageSeen:
      return Protocol::kSip;
    case EventType::kRtcpByeSeen:
      return Protocol::kRtcp;
    case EventType::kAccStartSeen:
    case EventType::kAccUnmatched:
    case EventType::kAccBilledPartyAbsent:
      return Protocol::kAcc;
    default:
      return Protocol::kRtp;  // the media events, incl. kNonRtpOnMediaPort
  }
}

}  // namespace

void AlertLedger::record(const core::Alert& alert, const core::Event& cause) {
  ++total_recorded_;
  if (records_.size() >= capacity_) {
    ++dropped_;  // head is kept: the earliest evidence anchors an audit
    return;
  }
  AlertRecord rec;
  rec.alert = alert;
  rec.cause_type = cause.type;
  rec.cause_detail = cause.detail;
  rec.cause_value = cause.value;
  rec.cause_endpoint = cause.endpoint;
  rec.trail = core::TrailKey{cause.session, event_protocol(cause.type)};
  rec.sim_time = alert.time;
  rec.wall_unix_usec =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  records_.push_back(std::move(rec));
}

std::string AlertLedger::to_json() const {
  std::string out = "{\n  \"total_recorded\": " + std::to_string(total_recorded_) +
                    ",\n  \"dropped\": " + std::to_string(dropped_) + ",\n  \"alerts\": [\n";
  bool first = true;
  for (const AlertRecord& rec : records_) {
    if (!first) out += ",\n";
    first = false;
    out += str::format(
        "    {\"rule\": \"%s\", \"severity\": \"%s\", \"session\": \"%s\", "
        "\"sim_time_usec\": %lld, \"wall_unix_usec\": %lld, \"trail\": \"%s\", "
        "\"cause\": {\"event\": \"%s\", \"value\": %lld, \"endpoint\": \"%s\", "
        "\"detail\": \"%s\"}, \"message\": \"%s\"}",
        rec.alert.rule.c_str(), core::severity_name(rec.alert.severity).data(),
        rec.alert.session.c_str(), static_cast<long long>(rec.sim_time),
        static_cast<long long>(rec.wall_unix_usec), rec.trail.to_string().c_str(),
        std::string(core::event_type_name(rec.cause_type)).c_str(),
        static_cast<long long>(rec.cause_value), rec.cause_endpoint.to_string().c_str(),
        rec.cause_detail.c_str(), rec.alert.message.c_str());
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace scidive::obs
