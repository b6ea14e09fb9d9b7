// Hand-built SIP calls and their RTP for engine tests: an INVITE and a 200
// OK each offering one side's media endpoint in SDP, a BYE from the caller,
// and rounds of media both ways.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "pkt/packet.h"
#include "rtp/rtp.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::core::call_streams {

inline pkt::Endpoint media(uint8_t host, uint16_t port) {
  return {pkt::Ipv4Address(10, 0, 0, host), port};
}

/// One call: the caller signals from caller_media's host, the callee from
/// callee_media's host, each offering its media endpoint in SDP.
struct Call {
  std::string id;
  pkt::Endpoint caller_media;
  pkt::Endpoint callee_media;
  std::string caller;  // From user; "a-<id>" when empty
};

inline pkt::Packet sip_packet(const sip::SipMessage& msg, pkt::Ipv4Address from,
                              pkt::Ipv4Address to, SimTime time) {
  pkt::Packet p = pkt::make_udp_packet({from, 5060}, {to, 5060}, from_string(msg.to_string()));
  p.timestamp = time;
  return p;
}

inline void add_dialog_headers(sip::SipMessage& msg, const Call& call, bool to_tag,
                               const std::string& cseq) {
  msg.headers().add("Via", "SIP/2.0/UDP " + call.caller_media.addr.to_string() +
                               ":5060;branch=z9hG4bK-" + call.id);
  msg.headers().add("Max-Forwards", "70");
  const std::string from = call.caller.empty() ? "a-" + call.id : call.caller;
  msg.headers().add("From", "<sip:" + from + "@lab.net>;tag=ta-" + call.id);
  msg.headers().add("To", "<sip:b-" + call.id + "@lab.net>" + (to_tag ? ";tag=tb-" + call.id : ""));
  msg.headers().add("Call-ID", call.id);
  msg.headers().add("CSeq", cseq);
}

inline pkt::Packet invite(const Call& call, SimTime time) {
  auto msg = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("b-" + call.id, "lab.net"));
  add_dialog_headers(msg, call, /*to_tag=*/false, "1 INVITE");
  msg.set_body(
      sip::make_audio_sdp(call.caller_media.addr.to_string(), call.caller_media.port, 1).to_string(),
      "application/sdp");
  return sip_packet(msg, call.caller_media.addr, call.callee_media.addr, time);
}

/// INVITE and 200 OK, each carrying its side's media endpoint in SDP.
inline std::vector<pkt::Packet> setup(const Call& call, SimTime time) {
  auto ok = sip::SipMessage::response(200, "OK");
  add_dialog_headers(ok, call, /*to_tag=*/true, "1 INVITE");
  ok.set_body(
      sip::make_audio_sdp(call.callee_media.addr.to_string(), call.callee_media.port, 2).to_string(),
      "application/sdp");
  return {invite(call, time),
          sip_packet(ok, call.callee_media.addr, call.caller_media.addr, time + msec(10))};
}

/// BYE from the caller: arms a monitor on the caller's media in the call.
inline pkt::Packet bye(const Call& call, SimTime time) {
  auto msg = sip::SipMessage::request(sip::Method::kBye, sip::SipUri("b-" + call.id, "lab.net"));
  add_dialog_headers(msg, call, /*to_tag=*/true, "2 BYE");
  return sip_packet(msg, call.caller_media.addr, call.callee_media.addr, time);
}

inline pkt::Packet rtp_packet(pkt::Endpoint src, pkt::Endpoint dst, uint32_t ssrc,
                              uint16_t seq, SimTime time) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * 160;
  h.ssrc = ssrc;
  pkt::Packet p = pkt::make_udp_packet(src, dst, rtp::serialize_rtp(h, Bytes(160, 0xd5)));
  p.timestamp = time;
  return p;
}

/// Both directions of a call's media, one packet each per 20 ms round.
inline void add_media_round(std::vector<pkt::Packet>& out, const Call& call, uint16_t round,
                            SimTime time) {
  out.push_back(rtp_packet(call.callee_media, call.caller_media, 0xb0, round, time));
  out.push_back(rtp_packet(call.caller_media, call.callee_media, 0xa0, round, time + msec(1)));
}

}  // namespace scidive::core::call_streams
