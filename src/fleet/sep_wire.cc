#include "fleet/sep_wire.h"

namespace scidive::fleet {

namespace {

constexpr uint8_t kMagic[4] = {'S', 'E', 'P', '2'};
constexpr uint8_t kFlagCompressed = 0x01;
constexpr size_t kMaxVarintBytes = 10;

/// EventType <-> wire id table for SEP-v2 event records. Append only; ids
/// are protocol state.
constexpr struct {
  core::EventType type;
  int id;
} kWireIds[] = {
    {core::EventType::kSipInviteSeen, 1},
    {core::EventType::kSipReinviteSeen, 2},
    {core::EventType::kSipSessionEstablished, 3},
    {core::EventType::kSipByeSeen, 4},
    {core::EventType::kSipMalformed, 5},
    {core::EventType::kSip4xxSeen, 6},
    {core::EventType::kSipRegisterSeen, 7},
    {core::EventType::kSipAuthChallenge, 8},
    {core::EventType::kSipAuthFailure, 9},
    {core::EventType::kImMessageSeen, 10},
    {core::EventType::kRtpStreamStarted, 11},
    {core::EventType::kRtpSeqJump, 12},
    {core::EventType::kRtpUnexpectedSource, 13},
    {core::EventType::kRtpAfterBye, 14},
    {core::EventType::kRtpAfterReinvite, 15},
    {core::EventType::kRtpJitter, 16},
    {core::EventType::kNonRtpOnMediaPort, 17},
    {core::EventType::kAccStartSeen, 18},
    {core::EventType::kAccUnmatched, 19},
    {core::EventType::kAccBilledPartyAbsent, 20},
    // 21 was a host-side "IM really sent" event; IM vouches now ride
    // SepVouch records. The id stays unassigned so it is rejected.
    {core::EventType::kRtpPacketSeen, 22},
    {core::EventType::kRtcpByeSeen, 23},
    {core::EventType::kRtpAfterRtcpBye, 24},
};

Result<std::string> get_string(BufReader& r) {
  auto len = get_varint(r);
  if (!len) return len.error();
  if (len.value() > kMaxStringBytes) return Error{Errc::kMalformed, "string too long"};
  auto bytes = r.bytes(static_cast<size_t>(len.value()));
  if (!bytes) return bytes.error();
  return std::string(reinterpret_cast<const char*>(bytes.value().data()),
                     bytes.value().size());
}

void put_string(BufWriter& w, std::string_view s) {
  // Encoder-side truncation keeps every frame decodable; detail strings are
  // diagnostics, not protocol state.
  if (s.size() > kMaxStringBytes) s = s.substr(0, kMaxStringBytes);
  put_varint(w, s.size());
  w.str(s);
}

void put_endpoint(BufWriter& w, const pkt::Endpoint& ep) {
  w.u32(ep.addr.value());
  w.u16(ep.port);
}

Result<pkt::Endpoint> get_endpoint(BufReader& r) {
  auto addr = r.u32();
  if (!addr) return addr.error();
  auto port = r.u16();
  if (!port) return port.error();
  return pkt::Endpoint{pkt::Ipv4Address(addr.value()), port.value()};
}

Result<core::Event> decode_event(BufReader& r, SimTime& last_time) {
  auto type_id = get_varint(r);
  if (!type_id) return type_id.error();
  auto type = event_type_from_wire_id(static_cast<int>(type_id.value()));
  if (!type) return type.error();
  core::Event out;
  out.type = type.value();
  auto delta = get_zigzag(r);
  if (!delta) return delta.error();
  // Wrapping arithmetic: a hostile frame can place consecutive event times
  // at opposite ends of the int64 range, and signed overflow would be UB.
  out.time = static_cast<SimTime>(static_cast<uint64_t>(last_time) +
                                  static_cast<uint64_t>(delta.value()));
  last_time = out.time;
  auto session = get_string(r);
  if (!session) return session.error();
  out.session = std::move(session.value());
  auto aor = get_string(r);
  if (!aor) return aor.error();
  out.aor = std::move(aor.value());
  auto ep = get_endpoint(r);
  if (!ep) return ep.error();
  out.endpoint = ep.value();
  auto value = get_zigzag(r);
  if (!value) return value.error();
  out.value = value.value();
  auto detail = get_string(r);
  if (!detail) return detail.error();
  out.detail = std::move(detail.value());
  return out;
}

Result<SepVerdict> decode_verdict(BufReader& r) {
  SepVerdict out;
  auto action = r.u8();
  if (!action) return action.error();
  if (action.value() >= core::kVerdictActionCount)
    return Error{Errc::kMalformed, "unknown verdict action"};
  out.action = static_cast<core::VerdictAction>(action.value());
  auto rule = get_string(r);
  if (!rule) return rule.error();
  out.rule = std::move(rule.value());
  auto session = get_string(r);
  if (!session) return session.error();
  out.session = std::move(session.value());
  auto aor = get_string(r);
  if (!aor) return aor.error();
  out.aor = std::move(aor.value());
  auto ep = get_endpoint(r);
  if (!ep) return ep.error();
  out.endpoint = ep.value();
  auto time = get_zigzag(r);
  if (!time) return time.error();
  out.time = time.value();
  return out;
}

Result<SepCounter> decode_counter(BufReader& r) {
  SepCounter out;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() < 1 || kind.value() > 2)
    return Error{Errc::kMalformed, "unknown counter kind"};
  out.kind = static_cast<CounterKind>(kind.value());
  auto key = get_string(r);
  if (!key) return key.error();
  out.key = std::move(key.value());
  auto window = get_zigzag(r);
  if (!window) return window.error();
  out.window_start = window.value();
  auto count = get_varint(r);
  if (!count) return count.error();
  out.count = count.value();
  return out;
}

Result<SepVouch> decode_vouch(BufReader& r) {
  SepVouch out;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() < 1 || kind.value() > 3)
    return Error{Errc::kMalformed, "unknown vouch kind"};
  out.kind = static_cast<VouchKind>(kind.value());
  auto key = get_string(r);
  if (!key) return key.error();
  out.key = std::move(key.value());
  auto time = get_zigzag(r);
  if (!time) return time.error();
  out.time = time.value();
  return out;
}

Result<SepHandoff> decode_handoff(BufReader& r) {
  SepHandoff out;
  auto session = get_string(r);
  if (!session) return session.error();
  out.session = std::move(session.value());
  auto to_node = get_string(r);
  if (!to_node) return to_node.error();
  out.to_node = std::move(to_node.value());
  auto slot = get_varint(r);
  if (!slot) return slot.error();
  out.slot = slot.value();
  return out;
}

Result<SepFrame> decode_body(std::span<const uint8_t> body, uint64_t count,
                             SepFrame frame) {
  BufReader r(body);
  SimTime last_event_time = 0;
  frame.records.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    auto type = r.u8();
    if (!type) return type.error();
    auto len = get_varint(r);
    if (!len) return len.error();
    if (len.value() > kMaxRecordBytes) return Error{Errc::kMalformed, "record too long"};
    auto payload = r.bytes(static_cast<size_t>(len.value()));
    if (!payload) return payload.error();
    BufReader pr(payload.value());
    switch (static_cast<SepRecordType>(type.value())) {
      case SepRecordType::kEvent: {
        auto rec = decode_event(pr, last_event_time);
        if (!rec) return rec.error();
        frame.records.emplace_back(std::move(rec.value()));
        break;
      }
      case SepRecordType::kVerdict: {
        auto rec = decode_verdict(pr);
        if (!rec) return rec.error();
        frame.records.emplace_back(std::move(rec.value()));
        break;
      }
      case SepRecordType::kCounter: {
        auto rec = decode_counter(pr);
        if (!rec) return rec.error();
        frame.records.emplace_back(std::move(rec.value()));
        break;
      }
      case SepRecordType::kVouch: {
        auto rec = decode_vouch(pr);
        if (!rec) return rec.error();
        frame.records.emplace_back(std::move(rec.value()));
        break;
      }
      case SepRecordType::kHandoff: {
        auto rec = decode_handoff(pr);
        if (!rec) return rec.error();
        frame.records.emplace_back(std::move(rec.value()));
        break;
      }
      case SepRecordType::kHello:
        // Liveness only; the header already carries node + epoch.
        break;
      default:
        // Forward compatibility: a newer peer may batch record types this
        // build does not know. The length prefix lets us skip them without
        // understanding them — counted, never fatal.
        ++frame.unknown_skipped;
        break;
    }
    // Known record types must consume their payload exactly; slack would
    // mean the encoder and decoder disagree about the format.
    if (static_cast<SepRecordType>(type.value()) <= SepRecordType::kHello &&
        type.value() >= 1 && pr.remaining() != 0) {
      return Error{Errc::kMalformed, "record payload has trailing bytes"};
    }
  }
  if (r.remaining() != 0) return Error{Errc::kMalformed, "frame body has trailing bytes"};
  return frame;
}

}  // namespace

void put_varint(BufWriter& w, uint64_t v) {
  while (v >= 0x80) {
    w.u8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<uint8_t>(v));
}

Result<uint64_t> get_varint(BufReader& r) {
  uint64_t v = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    auto b = r.u8();
    if (!b) return b.error();
    if (i == 9 && (b.value() & 0xfe) != 0)
      return Error{Errc::kMalformed, "varint overflows 64 bits"};
    v |= static_cast<uint64_t>(b.value() & 0x7f) << (7 * i);
    if ((b.value() & 0x80) == 0) return v;
  }
  return Error{Errc::kMalformed, "varint too long"};
}

void put_zigzag(BufWriter& w, int64_t v) {
  put_varint(w, (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

Result<int64_t> get_zigzag(BufReader& r) {
  auto v = get_varint(r);
  if (!v) return v.error();
  const uint64_t u = v.value();
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Bytes rle_compress(std::span<const uint8_t> in) {
  Bytes out;
  out.reserve(in.size());
  size_t i = 0;
  while (i < in.size()) {
    // Measure the run at i.
    size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < 131) ++run;
    if (run >= 4) {
      out.push_back(static_cast<uint8_t>(0x80 + run - 4));
      out.push_back(in[i]);
      i += run;
      continue;
    }
    // Literal stretch: up to 128 bytes, stopping before the next run of 4+.
    size_t lit_start = i;
    size_t lit = 0;
    while (i < in.size() && lit < 128) {
      size_t ahead = 1;
      while (i + ahead < in.size() && in[i + ahead] == in[i] && ahead < 4) ++ahead;
      if (ahead >= 4) break;
      i += 1;
      lit += 1;
    }
    out.push_back(static_cast<uint8_t>(lit - 1));
    out.insert(out.end(), in.begin() + static_cast<ptrdiff_t>(lit_start),
               in.begin() + static_cast<ptrdiff_t>(lit_start + lit));
  }
  return out;
}

Result<Bytes> rle_decompress(std::span<const uint8_t> in, size_t max_out) {
  Bytes out;
  BufReader r(in);
  while (!r.empty()) {
    auto c = r.u8();
    if (!c) return c.error();
    if (c.value() < 0x80) {
      const size_t n = static_cast<size_t>(c.value()) + 1;
      auto lit = r.bytes(n);
      if (!lit) return lit.error();
      if (out.size() + n > max_out)
        return Error{Errc::kMalformed, "decompressed body exceeds cap"};
      out.insert(out.end(), lit.value().begin(), lit.value().end());
    } else {
      const size_t n = static_cast<size_t>(c.value()) - 0x80 + 4;
      auto b = r.u8();
      if (!b) return b.error();
      if (out.size() + n > max_out)
        return Error{Errc::kMalformed, "decompressed body exceeds cap"};
      out.insert(out.end(), n, b.value());
    }
  }
  return out;
}

SepEncoder::SepEncoder(std::string node, uint64_t epoch)
    : node_(std::move(node)), epoch_(epoch) {
  if (node_.size() > kMaxNodeNameBytes) node_.resize(kMaxNodeNameBytes);
}

void SepEncoder::record(SepRecordType type, const Bytes& payload) {
  body_.u8(static_cast<uint8_t>(type));
  put_varint(body_, payload.size());
  body_.bytes(payload);
  ++record_count_;
}

void SepEncoder::add_event(const core::Event& event) {
  BufWriter p;
  put_varint(p, static_cast<uint64_t>(event_type_wire_id(event.type)));
  // Wrapping delta (see decode_event): re-encoding a decoded frame must not
  // overflow even when the times span the int64 range.
  put_zigzag(p, static_cast<int64_t>(static_cast<uint64_t>(event.time) -
                                     static_cast<uint64_t>(last_event_time_)));
  last_event_time_ = event.time;
  put_string(p, event.session);
  put_string(p, event.aor);
  put_endpoint(p, event.endpoint);
  put_zigzag(p, event.value);
  put_string(p, event.detail);
  record(SepRecordType::kEvent, std::move(p).take());
}

void SepEncoder::add_verdict(const SepVerdict& verdict) {
  BufWriter p;
  p.u8(static_cast<uint8_t>(verdict.action));
  put_string(p, verdict.rule);
  put_string(p, verdict.session);
  put_string(p, verdict.aor);
  put_endpoint(p, verdict.endpoint);
  put_zigzag(p, verdict.time);
  record(SepRecordType::kVerdict, std::move(p).take());
}

void SepEncoder::add_counter(const SepCounter& counter) {
  BufWriter p;
  p.u8(static_cast<uint8_t>(counter.kind));
  put_string(p, counter.key);
  put_zigzag(p, counter.window_start);
  put_varint(p, counter.count);
  record(SepRecordType::kCounter, std::move(p).take());
}

void SepEncoder::add_vouch(const SepVouch& vouch) {
  BufWriter p;
  p.u8(static_cast<uint8_t>(vouch.kind));
  put_string(p, vouch.key);
  put_zigzag(p, vouch.time);
  record(SepRecordType::kVouch, std::move(p).take());
}

void SepEncoder::add_handoff(const SepHandoff& handoff) {
  BufWriter p;
  put_string(p, handoff.session);
  put_string(p, handoff.to_node);
  put_varint(p, handoff.slot);
  record(SepRecordType::kHandoff, std::move(p).take());
}

void SepEncoder::add_hello() { record(SepRecordType::kHello, Bytes{}); }

Bytes SepEncoder::finish(bool compress) {
  BufWriter frame(16 + node_.size() + body_.size());
  frame.bytes(std::span<const uint8_t>(kMagic, 4));
  frame.u8(kSepVersion);

  Bytes body = std::move(body_).take();
  uint8_t flags = 0;
  if (compress) {
    Bytes packed = rle_compress(body);
    if (packed.size() < body.size()) {
      body = std::move(packed);
      flags |= kFlagCompressed;
    }
  }
  frame.u8(flags);
  frame.u8(static_cast<uint8_t>(node_.size()));
  frame.str(node_);
  put_varint(frame, epoch_);
  put_varint(frame, record_count_);
  frame.bytes(body);

  body_ = BufWriter();
  record_count_ = 0;
  last_event_time_ = 0;
  return std::move(frame).take();
}

Result<SepFrame> decode_frame(std::span<const uint8_t> datagram) {
  BufReader r(datagram);
  auto magic = r.bytes(4);
  if (!magic) return Error{Errc::kTruncated, "frame shorter than magic"};
  if (!std::equal(magic.value().begin(), magic.value().end(), kMagic))
    return Error{Errc::kUnsupported, "not a SEP2 frame"};
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != kSepVersion)
    return Error{Errc::kUnsupported, "unknown SEP version"};
  auto flags = r.u8();
  if (!flags) return flags.error();
  if ((flags.value() & ~kFlagCompressed) != 0)
    return Error{Errc::kMalformed, "unknown frame flags"};
  auto name_len = r.u8();
  if (!name_len) return name_len.error();
  if (name_len.value() == 0 || name_len.value() > kMaxNodeNameBytes)
    return Error{Errc::kMalformed, "bad node name length"};
  auto name = r.bytes(name_len.value());
  if (!name) return name.error();
  SepFrame frame;
  frame.node.assign(reinterpret_cast<const char*>(name.value().data()),
                    name.value().size());
  auto epoch = get_varint(r);
  if (!epoch) return epoch.error();
  frame.epoch = epoch.value();
  auto count = get_varint(r);
  if (!count) return count.error();
  if (count.value() > kMaxRecordsPerFrame)
    return Error{Errc::kMalformed, "too many records in frame"};

  if (flags.value() & kFlagCompressed) {
    auto body = rle_decompress(r.rest(), kMaxBodyBytes);
    if (!body) return body.error();
    return decode_body(body.value(), count.value(), std::move(frame));
  }
  if (r.remaining() > kMaxBodyBytes) return Error{Errc::kMalformed, "body too large"};
  return decode_body(r.rest(), count.value(), std::move(frame));
}

int event_type_wire_id(core::EventType type) {
  for (const auto& entry : kWireIds) {
    if (entry.type == type) return entry.id;
  }
  return 0;
}

Result<core::EventType> event_type_from_wire_id(int id) {
  for (const auto& entry : kWireIds) {
    if (entry.id == id) return entry.type;
  }
  return Error{Errc::kUnsupported, "unknown event wire id"};
}

}  // namespace scidive::fleet
