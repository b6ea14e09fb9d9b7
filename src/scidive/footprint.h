// Footprints — the paper's protocol-dependent information units (§3.1).
// The Distiller turns each network packet into one Footprint; Footprints
// that belong to the same session are grouped into Trails.
//
// A footprint is a compact, decoded summary: rich enough for every rule in
// the paper (and for the "crude information directly from the Trails" access
// path), small enough to retain thousands per session.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "common/box.h"
#include "common/clock.h"
#include "pkt/addr.h"

namespace scidive::core {

/// Which protocol a footprint was distilled from.
enum class Protocol { kSip, kRtp, kRtcp, kAcc, kH225, kRas, kUnknown };

std::string_view protocol_name(Protocol p);

/// Decoded summary of one SIP message.
struct SipFootprint {
  bool is_request = true;
  std::string method;        // "INVITE", "BYE", ... (requests)
  int status_code = 0;       // responses
  std::string cseq_method;   // method the CSeq names (responses too)
  uint32_t cseq = 0;
  std::string call_id;
  std::string from_aor;
  std::string from_tag;
  std::string to_aor;
  std::string to_tag;
  bool well_formed = false;
  bool has_auth = false;         // Authorization header present
  std::string auth_response;     // digest response value (for guess counting)
  bool has_challenge = false;    // WWW-Authenticate present
  std::optional<pkt::Endpoint> sdp_media;  // media endpoint offered/answered
  std::optional<pkt::Endpoint> contact;    // Contact endpoint if IP-literal
  size_t body_len = 0;

  bool is_response() const { return !is_request; }
};

/// Decoded summary of one RTP packet.
struct RtpFootprint {
  uint32_t ssrc = 0;
  uint16_t sequence = 0;
  uint32_t timestamp = 0;
  uint8_t payload_type = 0;
  size_t payload_len = 0;
};

/// The fields of one RTP media packet the event generator's steady-state
/// step reads: what Distiller::peek_rtp extracts without building a
/// Footprint, and what an RTP footprint carries.
struct RtpPeek {
  pkt::Endpoint src;
  pkt::Endpoint dst;
  uint32_t ssrc = 0;
  uint16_t sequence = 0;
  uint32_t timestamp = 0;
  SimTime time = 0;
};

/// Decoded summary of one RTCP packet.
struct RtcpFootprint {
  bool is_bye = false;
  bool is_sender_report = false;
  bool is_receiver_report = false;
  uint32_t ssrc = 0;
};

/// Decoded summary of one accounting (ACC) transaction.
struct AccFootprint {
  bool is_start = true;
  std::string call_id;
  std::string from_aor;
  std::string to_aor;
};

/// Decoded summary of one H.225.0/Q.931 call-signaling message (the H.323
/// CMP; the architecture is CMP-agnostic, §1).
struct H225Footprint {
  uint8_t message_type = 0;      // Q931MessageType value
  std::string message_name;      // "SETUP", "CONNECT", ...
  std::string call_id;
  std::string calling_alias;
  std::string called_alias;
  std::optional<pkt::Endpoint> media;
  bool is_setup = false;
  bool is_connect = false;
  bool is_release = false;
};

/// Decoded summary of one RAS (gatekeeper control) message.
struct RasFootprint {
  uint8_t type = 0;          // RasType value
  std::string type_name;     // "RRQ", "ACF", ...
  std::string alias;
  std::string dest_alias;
  std::string call_id;
  std::optional<pkt::Endpoint> signal_address;
};

/// A packet that reached the tap but decodes as none of the above
/// (malformed SIP on a SIP port, garbage on a media port, ...).
struct UnknownFootprint {
  std::string reason;
};

struct Footprint {
  Protocol protocol = Protocol::kUnknown;
  SimTime time = 0;
  pkt::Endpoint src;
  pkt::Endpoint dst;
  size_t wire_len = 0;
  // The string-heavy signaling alternatives are boxed so the variant's (and
  // therefore the Trail ring slot's) stride stays near the size of the small
  // media footprints: a steady-state RTP append writes one cache line, not
  // the six a 376-byte inline SipFootprint forced. Boxing costs one heap
  // cell per *signaling* footprint — a path that already allocates strings —
  // and nothing on the RTP/RTCP hot path, which stays inline.
  std::variant<Box<SipFootprint>, RtpFootprint, RtcpFootprint, Box<AccFootprint>,
               Box<H225Footprint>, Box<RasFootprint>, Box<UnknownFootprint>>
      data;

  const SipFootprint* sip() const { return unbox<SipFootprint>(); }
  const RtpFootprint* rtp() const { return std::get_if<RtpFootprint>(&data); }
  const RtcpFootprint* rtcp() const { return std::get_if<RtcpFootprint>(&data); }
  const AccFootprint* acc() const { return unbox<AccFootprint>(); }
  const H225Footprint* h225() const { return unbox<H225Footprint>(); }
  const RasFootprint* ras() const { return unbox<RasFootprint>(); }
  const UnknownFootprint* unknown() const { return unbox<UnknownFootprint>(); }

  /// Mutable accessors for the boxed alternatives (tests and tools that
  /// tweak a distilled footprint in place).
  SipFootprint* mutable_sip() { return unbox_mut<SipFootprint>(); }
  AccFootprint* mutable_acc() { return unbox_mut<AccFootprint>(); }
  H225Footprint* mutable_h225() { return unbox_mut<H225Footprint>(); }
  RasFootprint* mutable_ras() { return unbox_mut<RasFootprint>(); }

 private:
  template <typename T>
  const T* unbox() const {
    const auto* b = std::get_if<Box<T>>(&data);
    return b ? b->get() : nullptr;
  }
  template <typename T>
  T* unbox_mut() {
    auto* b = std::get_if<Box<T>>(&data);
    return b ? b->get() : nullptr;
  }
};

}  // namespace scidive::core
