// Builders for synthetic footprints/events used by the core unit tests.
#pragma once

#include <string>
#include <string_view>

#include "pkt/packet.h"
#include "scidive/event_generator.h"
#include "scidive/footprint.h"

namespace scidive::core::testing {

inline pkt::Endpoint ep(uint8_t last_octet, uint16_t port) {
  return {pkt::Ipv4Address(10, 0, 0, last_octet), port};
}

/// One SIP message as a captured UDP datagram, for driving whole engines.
/// `first_line` is the request or status line; From carries `from_aor`,
/// CSeq `cseq_method`, and Contact `contact` when given.
inline pkt::Packet sip_packet(std::string_view first_line, std::string_view from_aor,
                              std::string_view call_id, std::string_view cseq_method,
                              SimTime time, pkt::Endpoint src, pkt::Endpoint dst,
                              std::optional<pkt::Endpoint> contact = std::nullopt) {
  std::string text(first_line);
  text += "\r\nVia: SIP/2.0/UDP " + src.to_string() + ";branch=z9hG4bK-" + std::string(call_id);
  text += "\r\nFrom: <sip:" + std::string(from_aor) + ">;tag=f-" + std::string(call_id);
  text += "\r\nTo: <sip:service@lab.net>";
  text += "\r\nCall-ID: " + std::string(call_id);
  text += "\r\nCSeq: 1 " + std::string(cseq_method);
  if (contact) {
    text += "\r\nContact: <sip:" + std::string(from_aor.substr(0, from_aor.find('@'))) + "@" +
            contact->to_string() + ">";
  }
  text += "\r\nContent-Length: 0\r\n\r\n";
  pkt::Packet packet = pkt::make_udp_packet(src, dst, Bytes(text.begin(), text.end()));
  packet.timestamp = time;
  return packet;
}

struct FootprintBuilder {
  Footprint fp;

  FootprintBuilder(Protocol protocol, SimTime time, pkt::Endpoint src, pkt::Endpoint dst) {
    fp.protocol = protocol;
    fp.time = time;
    fp.src = src;
    fp.dst = dst;
    fp.wire_len = 100;
  }

  operator Footprint() && { return std::move(fp); }
};

inline Footprint sip_request(std::string method, std::string call_id, std::string from_aor,
                             std::string from_tag, std::string to_aor, std::string to_tag,
                             SimTime time, pkt::Endpoint src, pkt::Endpoint dst,
                             std::optional<pkt::Endpoint> sdp_media = std::nullopt) {
  FootprintBuilder b(Protocol::kSip, time, src, dst);
  SipFootprint s;
  s.is_request = true;
  s.method = method;
  s.cseq_method = method;
  s.cseq = 1;
  s.call_id = call_id;
  s.from_aor = from_aor;
  s.from_tag = from_tag;
  s.to_aor = to_aor;
  s.to_tag = to_tag;
  s.well_formed = true;
  s.sdp_media = sdp_media;
  b.fp.data = SipRecord::make(s);
  return b;
}

inline Footprint sip_response(int code, std::string cseq_method, std::string call_id,
                              std::string from_aor, std::string from_tag, std::string to_aor,
                              std::string to_tag, SimTime time, pkt::Endpoint src,
                              pkt::Endpoint dst,
                              std::optional<pkt::Endpoint> sdp_media = std::nullopt) {
  FootprintBuilder b(Protocol::kSip, time, src, dst);
  SipFootprint s;
  s.is_request = false;
  s.status_code = code;
  s.cseq_method = cseq_method;
  s.cseq = 1;
  s.call_id = call_id;
  s.from_aor = from_aor;
  s.from_tag = from_tag;
  s.to_aor = to_aor;
  s.to_tag = to_tag;
  s.well_formed = true;
  s.has_challenge = (code == 401);
  s.sdp_media = sdp_media;
  b.fp.data = SipRecord::make(s);
  return b;
}

/// `fp` with its SIP footprint rebuilt from a draft `tweak` edits. The draft
/// starts as a copy of the stored footprint, its texts viewing the old
/// block, which lives until the new record has copied them.
template <typename Fn>
Footprint tweak_sip(Footprint fp, Fn&& tweak) {
  SipFootprint draft = *fp.sip();
  tweak(draft);
  fp.data = SipRecord::make(draft);
  return fp;
}

inline Footprint rtp_packet(uint16_t seq, uint32_t ssrc, SimTime time, pkt::Endpoint src,
                            pkt::Endpoint dst) {
  FootprintBuilder b(Protocol::kRtp, time, src, dst);
  b.fp.data = RtpFootprint{ssrc, seq, static_cast<uint32_t>(seq) * 160, 0, 160};
  return b;
}

inline Footprint acc_start(std::string call_id, std::string from_aor, std::string to_aor,
                           SimTime time, pkt::Endpoint src, pkt::Endpoint dst) {
  FootprintBuilder b(Protocol::kAcc, time, src, dst);
  b.fp.data = AccFootprint{true, std::move(call_id), std::move(from_aor), std::move(to_aor)};
  return b;
}

/// Feeds footprints through TrailManager + EventGenerator and records events.
struct GeneratorHarness {
  TrailManager trails;
  EventGenerator generator;
  std::vector<Event> all_events;

  GeneratorHarness() : generator(trails) {}
  explicit GeneratorHarness(EventGeneratorConfig config) : generator(trails, config) {}

  std::vector<Event> feed(Footprint fp) {
    Trail& trail = trails.add(std::move(fp));
    std::vector<Event> out;
    generator.process(trail.back(), trail, out);
    all_events.insert(all_events.end(), out.begin(), out.end());
    return out;
  }

  size_t count(EventType type) const {
    size_t n = 0;
    for (const auto& e : all_events) {
      if (e.type == type) ++n;
    }
    return n;
  }

  const Event* find(EventType type) const {
    for (const auto& e : all_events) {
      if (e.type == type) return &e;
    }
    return nullptr;
  }
};

}  // namespace scidive::core::testing
