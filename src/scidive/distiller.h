// The Distiller (§3.1): "incoming network flows first pass through the
// Distiller, which translates packets into protocol dependent information
// units called Footprints. The Distiller is responsible for doing IP
// fragmentation, reassembly, decoding protocols, and finally generating the
// corresponding Footprints."
//
// Classification is defensive: the IDS sees raw bytes only, so the decoder
// is driven by port conventions with content-based verification, and
// arbitrary garbage degrades to UnknownFootprint instead of failing.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "pkt/fragment.h"
#include "pkt/packet.h"
#include "scidive/footprint.h"

namespace scidive::core {

struct DistillerConfig {
  /// UDP ports treated as SIP signaling (content-verified).
  std::set<uint16_t> sip_ports = {5060, 5061, 5062, 5064, 5070, 5080, 5081, 5082};
  /// UDP port of the accounting (ACC) protocol.
  uint16_t acc_port = 9009;
  /// Reassembly timeout for fragmented datagrams.
  SimDuration reassembly_timeout = sec(30);
};

/// Which wire protocol a parse failure was charged to. Unlike Protocol this
/// includes the carrier layers (IPv4/UDP), which fail before classification.
enum class ParseProto : uint8_t { kIpv4, kUdp, kSip, kRtp, kRtcp, kAcc, kH225, kRas };
constexpr size_t kParseProtoCount = 8;
std::string_view parse_proto_name(ParseProto p);

/// Errc values are dense (kOk..kState); used as the reason axis.
constexpr size_t kParseReasonCount = 8;

/// Parse failures on untrusted input, by (protocol, reason). Fixed cells:
/// recording is two array indexes, so the hot path stays allocation-free
/// even under a malformed-packet flood.
struct ParseErrorStats {
  uint64_t counts[kParseProtoCount][kParseReasonCount] = {};
  uint64_t total = 0;

  void record(ParseProto p, Errc reason) {
    ++counts[static_cast<size_t>(p)][static_cast<size_t>(reason)];
    ++total;
  }
  uint64_t count(ParseProto p, Errc reason) const {
    return counts[static_cast<size_t>(p)][static_cast<size_t>(reason)];
  }
};

struct DistillerStats {
  uint64_t packets_in = 0;
  uint64_t fragments_held = 0;     // fragment consumed, datagram incomplete
  uint64_t datagrams_reassembled = 0;  // fragmented datagrams completed
  uint64_t undecodable = 0;        // not even IPv4+UDP
  uint64_t footprints_out = 0;
  uint64_t sip_footprints = 0;
  uint64_t rtp_footprints = 0;
  uint64_t rtcp_footprints = 0;
  uint64_t acc_footprints = 0;
  uint64_t h225_footprints = 0;
  uint64_t ras_footprints = 0;
  uint64_t unknown_footprints = 0;
  ParseErrorStats parse_errors;
};

/// The footprint of one SIP-port payload, from one scan (sip/scan.h).
/// Returns Errc::kOk, or the reason the message does not parse — the same
/// reason the endpoints' parser gives — in which case `out` is the
/// "<unparseable>" footprint malformed SIP becomes. `fold_buf` is the
/// scanner's reusable buffer for folded header lines. `out` is a draft: its
/// texts view `text` and `fold_buf` and stay valid while both do;
/// SipRecord::make turns it into a stored footprint.
Errc distill_sip(std::string_view text, std::string& fold_buf, SipFootprint& out);

class Distiller {
 public:
  Distiller() : Distiller(DistillerConfig{}) {}
  explicit Distiller(DistillerConfig config);

  /// Distill one captured packet. Returns nothing for fragments that do not
  /// yet complete a datagram and for packets that are not IPv4/UDP at all.
  std::optional<Footprint> distill(const pkt::Packet& packet);

  /// Cheap, stateless header peek: succeeds exactly when distill() would
  /// classify this packet as RTP *and* no other classification was even
  /// attempted along the way — unfragmented, not on a signaling/accounting
  /// port, and on even (RTP-convention) ports so the speculative RTCP parse
  /// never runs. Records no stats and touches no reassembler state, so a
  /// packet that peeks but then takes the full pipeline is accounted once.
  std::optional<RtpPeek> peek_rtp(const pkt::Packet& packet) const;

  /// The (source, destination) UDP endpoints an IPv4 datagram's header
  /// names, read without any validation. Whenever peek_rtp() accepts a
  /// packet its endpoints are exactly these, so a caller can look flow
  /// state up before paying for the peek.
  static std::optional<std::pair<pkt::Endpoint, pkt::Endpoint>> header_endpoints(
      const pkt::Packet& packet);

  const DistillerStats& stats() const { return stats_; }

 private:
  Footprint decode(const pkt::UdpPacketView& udp, SimTime time, size_t wire_len);

  DistillerConfig config_;
  pkt::Ipv4Reassembler reassembler_;
  DistillerStats stats_;
  std::string sip_fold_buf_;
};

}  // namespace scidive::core
