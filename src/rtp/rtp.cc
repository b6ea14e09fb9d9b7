#include "rtp/rtp.h"

namespace scidive::rtp {

// The error texts fit the small-string buffer, so rejecting garbage on a
// media port builds no heap string.
Result<RtpView> parse_rtp(std::span<const uint8_t> data) {
  if (data.size() < kRtpMinHeaderLen) return Error{Errc::kTruncated, "rtp header"};
  uint8_t b0 = data[0];
  uint8_t version = b0 >> 6;
  if (version != 2) return Error{Errc::kUnsupported, "rtp version"};
  bool padding = b0 & 0x20;
  bool extension = b0 & 0x10;
  uint8_t cc = b0 & 0x0f;

  RtpView v;
  uint8_t b1 = data[1];
  v.header.marker = b1 & 0x80;
  v.header.payload_type = b1 & 0x7f;

  BufReader r(data.subspan(2));
  v.header.sequence = r.u16().value();
  v.header.timestamp = r.u32().value();
  v.header.ssrc = r.u32().value();

  size_t offset = kRtpMinHeaderLen + static_cast<size_t>(cc) * 4;
  if (data.size() < offset) return Error{Errc::kTruncated, "rtp csrc list"};
  for (uint8_t i = 0; i < cc; ++i) {
    v.header.csrc.push_back(r.u32().value());
  }

  if (extension) {
    if (data.size() < offset + 4) return Error{Errc::kTruncated, "rtp ext header"};
    uint16_t ext_words = static_cast<uint16_t>(data[offset + 2] << 8 | data[offset + 3]);
    offset += 4 + static_cast<size_t>(ext_words) * 4;
    if (data.size() < offset) return Error{Errc::kTruncated, "rtp ext body"};
  }

  size_t end = data.size();
  if (padding) {
    if (end <= offset) return Error{Errc::kMalformed, "rtp no payload"};
    uint8_t pad_len = data[end - 1];
    if (pad_len == 0 || offset + pad_len > end)
      return Error{Errc::kMalformed, "rtp pad length"};
    end -= pad_len;
  }
  v.payload = data.subspan(offset, end - offset);
  return v;
}

Bytes serialize_rtp(const RtpHeader& header, std::span<const uint8_t> payload) {
  BufWriter w(kRtpMinHeaderLen + header.csrc.size() * 4 + payload.size());
  w.u8(static_cast<uint8_t>(0x80 | (header.csrc.size() & 0x0f)));  // V=2, no P/X
  w.u8(static_cast<uint8_t>((header.marker ? 0x80 : 0) | (header.payload_type & 0x7f)));
  w.u16(header.sequence);
  w.u32(header.timestamp);
  w.u32(header.ssrc);
  for (uint32_t c : header.csrc) w.u32(c);
  w.bytes(payload);
  return std::move(w).take();
}

}  // namespace scidive::rtp
