#include "scidive/distiller.h"

#include "common/strings.h"
#include "h323/q931.h"
#include "h323/ras.h"
#include "pkt/udp.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "sip/auth.h"
#include "sip/sdp.h"
#include "voip/accounting.h"

namespace scidive::core {

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kSip: return "sip";
    case Protocol::kRtp: return "rtp";
    case Protocol::kRtcp: return "rtcp";
    case Protocol::kAcc: return "acc";
    case Protocol::kH225: return "h225";
    case Protocol::kRas: return "ras";
    case Protocol::kUnknown: return "unknown";
  }
  return "?";
}

std::string_view parse_proto_name(ParseProto p) {
  switch (p) {
    case ParseProto::kIpv4: return "ipv4";
    case ParseProto::kUdp: return "udp";
    case ParseProto::kSip: return "sip";
    case ParseProto::kRtp: return "rtp";
    case ParseProto::kRtcp: return "rtcp";
    case ParseProto::kAcc: return "acc";
    case ParseProto::kH225: return "h225";
    case ParseProto::kRas: return "ras";
  }
  return "?";
}

Distiller::Distiller(DistillerConfig config)
    : config_(std::move(config)),
      reassembler_(pkt::Ipv4Reassembler::Config{.timeout = config_.reassembly_timeout}) {}

std::optional<Footprint> Distiller::distill(const pkt::Packet& packet) {
  ++stats_.packets_in;

  // Non-fragments (the overwhelming common case) parse straight out of the
  // capture buffer; only fragments pay the reassembler's datagram copy.
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip) {
    ++stats_.undecodable;
    stats_.parse_errors.record(ParseProto::kIpv4, ip.error().code);
    return std::nullopt;
  }
  std::span<const uint8_t> datagram = packet.data;
  Bytes reassembled;
  if (ip.value().header.is_fragment()) {
    auto whole = reassembler_.push(packet.data, packet.timestamp);
    if (!whole) {
      if (whole.error().code == Errc::kState) {
        ++stats_.fragments_held;
      } else {
        ++stats_.undecodable;
        stats_.parse_errors.record(ParseProto::kIpv4, whole.error().code);
      }
      return std::nullopt;
    }
    reassembled = std::move(whole.value());
    datagram = reassembled;
    ++stats_.datagrams_reassembled;
  }
  auto udp = pkt::parse_udp_packet(datagram);
  if (!udp) {
    ++stats_.undecodable;
    stats_.parse_errors.record(ParseProto::kUdp, udp.error().code);
    return std::nullopt;
  }
  Footprint fp = decode(udp.value(), packet.timestamp, packet.data.size());
  ++stats_.footprints_out;
  switch (fp.protocol) {
    case Protocol::kSip: ++stats_.sip_footprints; break;
    case Protocol::kRtp: ++stats_.rtp_footprints; break;
    case Protocol::kRtcp: ++stats_.rtcp_footprints; break;
    case Protocol::kAcc: ++stats_.acc_footprints; break;
    case Protocol::kH225: ++stats_.h225_footprints; break;
    case Protocol::kRas: ++stats_.ras_footprints; break;
    case Protocol::kUnknown: ++stats_.unknown_footprints; break;
  }
  return fp;
}

std::optional<RtpPeek> Distiller::peek_rtp(const pkt::Packet& packet) const {
  auto ip = pkt::parse_ipv4(packet.data);
  if (!ip) return std::nullopt;
  const pkt::Ipv4View& v = ip.value();
  if (v.header.is_fragment() || v.header.protocol != pkt::kProtoUdp ||
      v.payload.size() < pkt::kUdpHeaderLen) {
    return std::nullopt;
  }
  // Ports are screened off the raw UDP header, before the checksum pass
  // over the whole datagram: signaling that must take the full path anyway
  // costs four byte loads here. Any port decode() would classify before the
  // final RTP attempt makes the packet ambiguous; odd ports additionally
  // trigger the speculative RTCP parse.
  const uint16_t src_port = static_cast<uint16_t>(v.payload[0] << 8 | v.payload[1]);
  const uint16_t dst_port = static_cast<uint16_t>(v.payload[2] << 8 | v.payload[3]);
  if (config_.sip_ports.contains(dst_port) || config_.sip_ports.contains(src_port)) {
    return std::nullopt;
  }
  if (dst_port == config_.acc_port || src_port == config_.acc_port) return std::nullopt;
  if (dst_port == h323::kH225Port || src_port == h323::kH225Port) return std::nullopt;
  if (dst_port == h323::kRasPort || src_port == h323::kRasPort) return std::nullopt;
  if (dst_port % 2 == 1 || src_port % 2 == 1) return std::nullopt;
  auto udp = pkt::parse_udp(v.payload, v.header.src, v.header.dst);
  if (!udp) return std::nullopt;
  auto rtp = rtp::parse_rtp(udp.value().payload);
  if (!rtp.ok()) return std::nullopt;
  return RtpPeek{{v.header.src, src_port},
                 {v.header.dst, dst_port},
                 rtp.value().header.ssrc,
                 rtp.value().header.sequence,
                 rtp.value().header.timestamp,
                 packet.timestamp};
}

SipFootprint Distiller::decode_sip(const sip::SipMessage& msg) {
  SipFootprint s;
  s.is_request = msg.is_request();
  if (msg.is_request()) {
    s.method = msg.method_text();
  } else {
    s.status_code = msg.status_code();
  }
  auto cs = msg.cseq();
  if (cs.ok()) {
    s.cseq = cs.value().number;
    s.cseq_method = cs.value().method;
  }
  s.call_id = msg.call_id().value_or("");
  auto from = msg.from();
  if (from.ok()) {
    s.from_aor = from.value().uri.address_of_record();
    s.from_tag = from.value().tag().value_or("");
  }
  auto to = msg.to();
  if (to.ok()) {
    s.to_aor = to.value().uri.address_of_record();
    s.to_tag = to.value().tag().value_or("");
  }
  s.well_formed = msg.well_formed();
  if (auto auth = msg.headers().get("Authorization")) {
    s.has_auth = true;
    auto creds = sip::DigestCredentials::parse(*auth);
    if (creds.ok()) s.auth_response = creds.value().response;
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
  return s;
}

Footprint Distiller::decode(const pkt::UdpPacketView& udp, SimTime time, size_t wire_len) {
  Footprint fp;
  fp.time = time;
  fp.src = udp.source();
  fp.dst = udp.destination();
  fp.wire_len = wire_len;

  bool sip_port =
      config_.sip_ports.contains(udp.dst_port) || config_.sip_ports.contains(udp.src_port);
  bool acc_port = udp.dst_port == config_.acc_port || udp.src_port == config_.acc_port;

  if (acc_port) {
    std::string_view text(reinterpret_cast<const char*>(udp.payload.data()),
                          udp.payload.size());
    auto record = voip::AccRecord::parse(text);
    if (record.ok()) {
      fp.protocol = Protocol::kAcc;
      fp.data = AccFootprint{record.value().kind == voip::AccRecord::Kind::kStart,
                             record.value().call_id, record.value().from_aor,
                             record.value().to_aor};
      return fp;
    }
    // "OK n" acknowledgements and garbage on the ACC port fall through to
    // an unknown footprint in the ACC column.
    stats_.parse_errors.record(ParseProto::kAcc, record.error().code);
    fp.protocol = Protocol::kAcc;
    fp.data = UnknownFootprint{"unparsed acc datagram"};
    return fp;
  }

  if (sip_port) {
    auto msg = sip::SipMessage::parse(udp.payload);
    if (msg.ok()) {
      fp.protocol = Protocol::kSip;
      fp.data = decode_sip(msg.value());
      return fp;
    }
    // A SIP-port packet that does not parse is itself a signal (malformed
    // SIP is event material for the billing-fraud rule).
    stats_.parse_errors.record(ParseProto::kSip, msg.error().code);
    fp.protocol = Protocol::kSip;
    SipFootprint s;
    s.well_formed = false;
    s.is_request = true;
    s.method = "<unparseable>";
    fp.data = s;
    return fp;
  }

  // H.323 planes: call signaling on 1720, RAS on 1719 (content-verified).
  if (udp.dst_port == h323::kH225Port || udp.src_port == h323::kH225Port) {
    auto q931 = h323::Q931Message::parse(udp.payload);
    if (q931.ok()) {
      const auto& m = q931.value();
      fp.protocol = Protocol::kH225;
      H225Footprint h;
      h.message_type = static_cast<uint8_t>(m.type);
      h.message_name = std::string(h323::q931_message_name(m.type));
      h.call_id = m.call_id;
      h.calling_alias = m.calling_alias;
      h.called_alias = m.called_alias;
      h.media = m.media;
      h.is_setup = m.type == h323::Q931MessageType::kSetup;
      h.is_connect = m.type == h323::Q931MessageType::kConnect;
      h.is_release = m.type == h323::Q931MessageType::kReleaseComplete;
      fp.data = std::move(h);
      return fp;
    }
    stats_.parse_errors.record(ParseProto::kH225, q931.error().code);
    fp.protocol = Protocol::kH225;
    fp.data = UnknownFootprint{"unparsed h225 datagram"};
    return fp;
  }
  if (udp.dst_port == h323::kRasPort || udp.src_port == h323::kRasPort) {
    auto ras = h323::RasMessage::parse(udp.payload);
    if (ras.ok()) {
      const auto& m = ras.value();
      fp.protocol = Protocol::kRas;
      RasFootprint r;
      r.type = static_cast<uint8_t>(m.type);
      r.type_name = std::string(h323::ras_type_name(m.type));
      r.alias = m.alias;
      r.dest_alias = m.dest_alias;
      r.call_id = m.call_id;
      r.signal_address = m.signal_address;
      fp.data = std::move(r);
      return fp;
    }
    stats_.parse_errors.record(ParseProto::kRas, ras.error().code);
    fp.protocol = Protocol::kRas;
    fp.data = UnknownFootprint{"unparsed ras datagram"};
    return fp;
  }

  // Media ports: RTCP is conventionally the odd port (rtp_port + 1).
  if (udp.dst_port % 2 == 1 || udp.src_port % 2 == 1) {
    auto rtcp = rtp::parse_rtcp(udp.payload);
    if (rtcp.ok()) {
      fp.protocol = Protocol::kRtcp;
      RtcpFootprint r;
      if (rtcp.value().bye) {
        r.is_bye = true;
        if (!rtcp.value().bye->ssrcs.empty()) r.ssrc = rtcp.value().bye->ssrcs[0];
      } else if (rtcp.value().sr) {
        r.is_sender_report = true;
        r.ssrc = rtcp.value().sr->ssrc;
      } else if (rtcp.value().rr) {
        r.is_receiver_report = true;
        r.ssrc = rtcp.value().rr->ssrc;
      }
      fp.data = r;
      return fp;
    }
  }

  auto rtp = rtp::parse_rtp(udp.payload);
  if (rtp.ok()) {
    fp.protocol = Protocol::kRtp;
    fp.data = RtpFootprint{rtp.value().header.ssrc, rtp.value().header.sequence,
                           rtp.value().header.timestamp, rtp.value().header.payload_type,
                           rtp.value().payload.size()};
    return fp;
  }

  // Not RTP either: charge the failure to RTP (the final classification
  // attempt). An RTCP miss on an odd port is not counted separately — the
  // RTCP attempt is speculative and falls through here.
  stats_.parse_errors.record(ParseProto::kRtp, rtp.error().code);
  fp.protocol = Protocol::kUnknown;
  fp.data = UnknownFootprint{rtp.error().to_string()};
  return fp;
}

}  // namespace scidive::core
