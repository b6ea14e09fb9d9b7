#include "fuzz/sip_reference.h"

#include <cstdio>
#include <optional>

#include "scidive/distiller.h"
#include "scidive/shard_router.h"
#include "sip/auth.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::fuzz {
namespace {

std::string escaped(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

std::string endpoint_text(const std::optional<pkt::Endpoint>& ep) {
  return ep ? ep->to_string() : "-";
}

/// The distiller's SIP decode as it read a parsed message before the
/// scanner: the message's structured accessors, each parsing its header.
/// The accessors return owned strings; the draft views them until the
/// record copies them.
core::SipRecord endpoint_footprint(const sip::SipMessage& msg) {
  core::SipFootprint s;
  std::string method, cseq_method, call_id, from_aor, from_tag, to_aor, to_tag, auth_response;
  s.is_request = msg.is_request();
  if (msg.is_request()) {
    method = msg.method_text();
  } else {
    s.status_code = msg.status_code();
  }
  auto cs = msg.cseq();
  if (cs.ok()) {
    s.cseq = cs.value().number;
    cseq_method = cs.value().method;
  }
  call_id = msg.call_id().value_or("");
  auto from = msg.from();
  if (from.ok()) {
    from_aor = from.value().uri.address_of_record();
    from_tag = from.value().tag().value_or("");
  }
  auto to = msg.to();
  if (to.ok()) {
    to_aor = to.value().uri.address_of_record();
    to_tag = to.value().tag().value_or("");
  }
  s.well_formed = msg.well_formed();
  if (auto auth = msg.headers().get("Authorization")) {
    s.has_auth = true;
    auto creds = sip::DigestCredentials::parse(*auth);
    if (creds.ok()) auth_response = creds.value().response;
  }
  s.has_challenge = msg.headers().has("WWW-Authenticate");
  s.body_len = msg.body().size();
  auto sdp = sip::Sdp::parse(msg.body());
  if (sdp.ok() && sdp.value().audio() != nullptr) {
    if (auto ip = pkt::Ipv4Address::parse(sdp.value().connection_addr))
      s.sdp_media = pkt::Endpoint{*ip, sdp.value().audio()->port};
  }
  auto contact = msg.contact();
  if (contact.ok()) {
    if (auto ip = pkt::Ipv4Address::parse(contact.value().uri.host()))
      s.contact = pkt::Endpoint{*ip, contact.value().uri.port_or_default()};
  }
  s.method = method;
  s.cseq_method = cseq_method;
  s.call_id = call_id;
  s.from_aor = from_aor;
  s.from_tag = from_tag;
  s.to_aor = to_aor;
  s.to_tag = to_tag;
  s.auth_response = auth_response;
  return core::SipRecord::make(s);
}

/// What the IDS reads of one SIP payload, read the endpoint's way.
struct SipEndpointView {
  /// SipMessage::parse's failure reason; kOk when the message parses.
  Errc error = Errc::kOk;
  /// The footprint decoded from the parsed message through its accessors,
  /// or the "<unparseable>" footprint when it does not parse.
  core::SipRecord footprint;
  // The shard router's keys (core::SipRouteKeys), when the message parses.
  std::string call_id;
  std::string cseq_method;
  std::string from_aor;
  std::optional<pkt::Endpoint> sdp_media;
};

SipEndpointView sip_endpoint_view(std::string_view text) {
  SipEndpointView view;
  auto msg = sip::SipMessage::parse(text);
  if (!msg.ok()) {
    view.error = msg.error().code;
    core::SipFootprint unparseable;
    unparseable.method = "<unparseable>";
    view.footprint = core::SipRecord::make(unparseable);
    return view;
  }
  const sip::SipMessage& m = msg.value();
  view.footprint = endpoint_footprint(m);
  view.call_id = view.footprint->call_id;
  if (auto cs = m.cseq(); cs.ok()) {
    view.cseq_method = cs.value().method;
  } else if (m.is_request()) {
    view.cseq_method = m.method_text();
  }
  view.from_aor = view.footprint->from_aor;
  view.sdp_media = view.footprint->sdp_media;
  return view;
}

}  // namespace

std::vector<std::string> sip_scan_divergences(std::string_view text, std::string& fold_buf) {
  const SipEndpointView want = sip_endpoint_view(text);
  core::SipFootprint got;
  const Errc error = core::distill_sip(text, fold_buf, got);

  std::vector<std::string> out;
  auto check = [&out](const char* field, const std::string& scanned,
                      const std::string& endpoint) {
    if (scanned != endpoint)
      out.push_back(std::string(field) + ": scanner " + scanned + ", endpoint " + endpoint);
  };
  check("error", errc_name(error), errc_name(want.error));
  const std::string rendered = render_sip_footprint(error, got);
  const std::string expected = render_sip_footprint(want.error, *want.footprint);
  if (rendered != expected) out.push_back("footprint:\n" + rendered + "endpoint:\n" + expected);

  const std::optional<core::SipRouteKeys> keys = core::sip_route_keys(text, fold_buf);
  check("router parses", keys ? "yes" : "no", want.error == Errc::kOk ? "yes" : "no");
  if (keys) {
    check("router call_id", escaped(keys->call_id), escaped(want.call_id));
    check("router cseq_method", escaped(keys->cseq_method), escaped(want.cseq_method));
    check("router from_aor", escaped(keys->from_aor), escaped(want.from_aor));
    check("router sdp_media", endpoint_text(keys->sdp_media), endpoint_text(want.sdp_media));
  }
  return out;
}

std::string render_sip_footprint(Errc error, const core::SipFootprint& fp) {
  std::string out;
  auto line = [&out](const char* field, const std::string& value) {
    out += field;
    out += ": ";
    out += value;
    out += '\n';
  };
  line("result", errc_name(error));
  line("is_request", fp.is_request ? "1" : "0");
  line("method", escaped(fp.method));
  line("status_code", std::to_string(fp.status_code));
  line("cseq", std::to_string(fp.cseq) + " " + escaped(fp.cseq_method));
  line("call_id", escaped(fp.call_id));
  line("from", escaped(fp.from_aor) + " tag=" + escaped(fp.from_tag));
  line("to", escaped(fp.to_aor) + " tag=" + escaped(fp.to_tag));
  line("well_formed", fp.well_formed ? "1" : "0");
  line("auth", std::string(fp.has_auth ? "1" : "0") + " response=" + escaped(fp.auth_response));
  line("challenge", fp.has_challenge ? "1" : "0");
  line("body_len", std::to_string(fp.body_len));
  line("sdp_media", endpoint_text(fp.sdp_media));
  line("contact", endpoint_text(fp.contact));
  return out;
}

}  // namespace scidive::fuzz
