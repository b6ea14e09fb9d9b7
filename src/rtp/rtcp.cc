#include "rtp/rtcp.h"

namespace scidive::rtp {
namespace {

Result<RtcpReportBlock> parse_report_block(BufReader& r) {
  RtcpReportBlock b;
  auto ssrc = r.u32();
  if (!ssrc) return ssrc.error();
  b.ssrc = ssrc.value();
  auto word = r.u32();
  if (!word) return word.error();
  b.fraction_lost = static_cast<uint8_t>(word.value() >> 24);
  b.cumulative_lost = word.value() & 0xffffff;
  auto seq = r.u32();
  if (!seq) return seq.error();
  b.highest_seq = seq.value();
  auto jitter = r.u32();
  if (!jitter) return jitter.error();
  b.jitter = jitter.value();
  // last SR / delay-since-last-SR: carried but unused here.
  if (!r.skip(8).ok()) return Error{Errc::kTruncated, "report block lsr"};
  return b;
}

void write_report_block(BufWriter& w, const RtcpReportBlock& b) {
  w.u32(b.ssrc);
  w.u32(static_cast<uint32_t>(b.fraction_lost) << 24 | (b.cumulative_lost & 0xffffff));
  w.u32(b.highest_seq);
  w.u32(b.jitter);
  w.u32(0);  // LSR
  w.u32(0);  // DLSR
}

void write_header(BufWriter& w, RtcpType type, uint8_t count, uint16_t length_words) {
  w.u8(static_cast<uint8_t>(0x80 | (count & 0x1f)));  // V=2
  w.u8(static_cast<uint8_t>(type));
  w.u16(length_words);
}

}  // namespace

Result<RtcpPacket> parse_rtcp(std::span<const uint8_t> data) {
  if (data.size() < 4) return Error{Errc::kTruncated, "rtcp header"};
  uint8_t b0 = data[0];
  if ((b0 >> 6) != 2) return Error{Errc::kUnsupported, "rtcp version"};
  uint8_t count = b0 & 0x1f;
  uint8_t type = data[1];
  uint16_t length_words = static_cast<uint16_t>(data[2] << 8 | data[3]);
  size_t total = (static_cast<size_t>(length_words) + 1) * 4;
  if (data.size() < total) return Error{Errc::kTruncated, "rtcp body"};

  BufReader r(data.subspan(4, total - 4));
  RtcpPacket out;
  switch (static_cast<RtcpType>(type)) {
    case RtcpType::kSenderReport: {
      RtcpSenderReport sr;
      auto ssrc = r.u32();
      if (!ssrc) return ssrc.error();
      sr.ssrc = ssrc.value();
      auto ntp = r.u64();
      if (!ntp) return ntp.error();
      sr.ntp_timestamp = ntp.value();
      auto rtp_ts = r.u32();
      if (!rtp_ts) return rtp_ts.error();
      sr.rtp_timestamp = rtp_ts.value();
      auto pc = r.u32();
      if (!pc) return pc.error();
      sr.packet_count = pc.value();
      auto oc = r.u32();
      if (!oc) return oc.error();
      sr.octet_count = oc.value();
      for (uint8_t i = 0; i < count; ++i) {
        auto b = parse_report_block(r);
        if (!b) return b.error();
        sr.reports.push_back(b.value());
      }
      out.sr = std::move(sr);
      return out;
    }
    case RtcpType::kReceiverReport: {
      RtcpReceiverReport rr;
      auto ssrc = r.u32();
      if (!ssrc) return ssrc.error();
      rr.ssrc = ssrc.value();
      for (uint8_t i = 0; i < count; ++i) {
        auto b = parse_report_block(r);
        if (!b) return b.error();
        rr.reports.push_back(b.value());
      }
      out.rr = std::move(rr);
      return out;
    }
    case RtcpType::kBye: {
      RtcpBye bye;
      for (uint8_t i = 0; i < count; ++i) {
        auto ssrc = r.u32();
        if (!ssrc) return ssrc.error();
        bye.ssrcs.push_back(ssrc.value());
      }
      if (!r.empty()) {
        auto len = r.u8();
        if (len.ok() && r.remaining() >= len.value()) {
          auto reason = r.copy(len.value());
          bye.reason = to_string_view_copy(reason.value());
        }
      }
      out.bye = std::move(bye);
      return out;
    }
    default:
      return Error{Errc::kUnsupported, "rtcp packet type"};
  }
}

Bytes serialize_rtcp(const RtcpSenderReport& sr) {
  BufWriter w;
  uint16_t words = static_cast<uint16_t>((24 + sr.reports.size() * 24) / 4);
  write_header(w, RtcpType::kSenderReport, static_cast<uint8_t>(sr.reports.size()), words);
  w.u32(sr.ssrc);
  w.u64(sr.ntp_timestamp);
  w.u32(sr.rtp_timestamp);
  w.u32(sr.packet_count);
  w.u32(sr.octet_count);
  for (const auto& b : sr.reports) write_report_block(w, b);
  return std::move(w).take();
}

Bytes serialize_rtcp(const RtcpReceiverReport& rr) {
  BufWriter w;
  uint16_t words = static_cast<uint16_t>((4 + rr.reports.size() * 24) / 4);
  write_header(w, RtcpType::kReceiverReport, static_cast<uint8_t>(rr.reports.size()), words);
  w.u32(rr.ssrc);
  for (const auto& b : rr.reports) write_report_block(w, b);
  return std::move(w).take();
}

Bytes serialize_rtcp(const RtcpBye& bye) {
  BufWriter w;
  size_t reason_len = bye.reason.empty() ? 0 : 1 + bye.reason.size();
  size_t padded_reason = (reason_len + 3) / 4 * 4;
  uint16_t words = static_cast<uint16_t>((bye.ssrcs.size() * 4 + padded_reason) / 4);
  write_header(w, RtcpType::kBye, static_cast<uint8_t>(bye.ssrcs.size()), words);
  for (uint32_t ssrc : bye.ssrcs) w.u32(ssrc);
  if (!bye.reason.empty()) {
    w.u8(static_cast<uint8_t>(bye.reason.size()));
    w.str(bye.reason);
    for (size_t i = reason_len; i < padded_reason; ++i) w.u8(0);
  }
  return std::move(w).take();
}

}  // namespace scidive::rtp
