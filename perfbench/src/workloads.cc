#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "capture/carrier_mix.h"
#include "common/bytes.h"
#include "rtp/rtp.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace perfbench {

using namespace scidive;

namespace {

// Minimal IPv4 (20 B, no options) + UDP (8 B) + RTP header offsets.
constexpr size_t kUdpChecksumOffset = 20 + 6;
constexpr size_t kRtpSeqOffset = 20 + 8 + 2;
constexpr size_t kRtpTimestampOffset = 20 + 8 + 4;

constexpr size_t kCarrierMixPackets = 400'000;
constexpr size_t kStormPackets = 100'000;
constexpr size_t kFanoutSessions = 50'000;
// Two rounds (100k packets) a pass keep passes short, so a run takes many
// passes of every topology; flows stay in order across passes.
constexpr uint32_t kFanoutRoundsPerPass = 2;
// Two rounds touch every flow: the first creates its state on the slow
// path, the second caches it in the fast path.
constexpr uint32_t kFanoutFirstRounds = 2;

uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Counter-based generator: draw i is mix64(seed + i * golden).
class Draws {
 public:
  explicit Draws(uint64_t seed) : state_(mix64(seed ^ 0x5c1d1be5c1d1be5ULL)) {}
  uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

class Hasher {
 public:
  void add(uint64_t v) { h_ = mix64(h_ + v); }
  void add(std::span<const uint8_t> bytes) {
    add(bytes.size());
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + i, 8);
      add(word);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    add(tail);
  }
  void add(const pkt::Packet& packet) {
    add(static_cast<uint64_t>(packet.timestamp));
    add(std::span<const uint8_t>(packet.data));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ULL;
};

bool is_sip(const pkt::Packet& packet, const core::DistillerConfig& ports) {
  auto udp = pkt::parse_udp_packet(packet.data);
  return udp.ok() && (ports.sip_ports.contains(udp.value().src_port) ||
                      ports.sip_ports.contains(udp.value().dst_port));
}

size_t scaled(size_t n, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(static_cast<double>(n) * scale)));
}

capture::CarrierMixConfig storm_mix() {
  capture::CarrierMixConfig mix;
  mix.call_rate_hz = 400.0;
  mix.im_rate_hz = 400.0;
  mix.register_rate_hz = 400.0;
  mix.mean_call_hold_sec = 0.5;
  mix.rtp_interval = msec(40);
  mix.reinvite_probability = 0.2;
  mix.spit_callers = 50;
  mix.spit_call_rate_hz = 100.0;
  return mix;
}

void generate_carrier(Stream& stream, capture::CarrierMixConfig mix, size_t packets) {
  mix.seed = stream.seed;
  mix.max_packets = packets;
  capture::CarrierMixSource source(mix);
  stream.packets = capture::read_all(source);
}

/// 50k calls set up with INVITE / 200 OK carrying SDP, then in-order media
/// from the callee's media endpoint to the caller's, one flow per call.
void generate_fanout(Stream& stream, size_t sessions) {
  Draws draws(stream.seed);
  const uint32_t addr_mask = (1u << 22) - 1;
  const uint32_t a_offset = static_cast<uint32_t>(draws.next()) & addr_mask;
  const uint32_t b_offset = static_cast<uint32_t>(draws.next()) & addr_mask;
  const std::string tag = std::to_string(draws.below(1'000'000));
  Bytes payload(160, 0xd5);

  for (size_t i = 0; i < sessions; ++i) {
    // Odd multiplier mod 2^22 is a bijection: every session gets distinct
    // caller (10.0/10) and callee (10.64/10) addresses.
    const uint32_t spread = static_cast<uint32_t>(i) * 2654435761u;
    const pkt::Ipv4Address a_addr((10u << 24) | ((spread + a_offset) & addr_mask));
    const pkt::Ipv4Address b_addr((10u << 24) | (1u << 22) | ((spread + b_offset) & addr_mask));
    const uint16_t a_port = static_cast<uint16_t>(16384 + 2 * draws.below(8192));
    const uint16_t b_port = static_cast<uint16_t>(16384 + 2 * draws.below(8192));
    const std::string n = std::to_string(i);
    const std::string call_id = "mf-" + tag + "-" + n;

    auto invite = sip::SipMessage::request(sip::Method::kInvite,
                                           sip::SipUri("b" + n, "fanout.example"));
    invite.headers().add("Via", "SIP/2.0/UDP " + a_addr.to_string() + ":5060;branch=z9hG4bK-" + n);
    invite.headers().add("Max-Forwards", "70");
    invite.headers().add("From", "<sip:a" + n + "@fanout.example>;tag=ta" + n);
    invite.headers().add("To", "<sip:b" + n + "@fanout.example>");
    invite.headers().add("Call-ID", call_id);
    invite.headers().add("CSeq", "1 INVITE");
    invite.headers().add("Contact", "<sip:a" + n + "@" + a_addr.to_string() + ":5060>");
    invite.set_body(sip::make_audio_sdp(a_addr.to_string(), a_port, 1).to_string(),
                    "application/sdp");
    pkt::Packet invite_pkt =
        pkt::make_udp_packet({a_addr, 5060}, {b_addr, 5060}, from_string(invite.to_string()));
    invite_pkt.timestamp = static_cast<SimTime>(2 * i) * usec(10);
    stream.warmup.push_back(std::move(invite_pkt));

    auto ok = sip::SipMessage::response(200, "OK");
    for (const char* h : {"Via", "From", "Call-ID", "CSeq"}) {
      ok.headers().add(h, std::string(*invite.headers().get(h)));
    }
    ok.headers().add("To", "<sip:b" + n + "@fanout.example>;tag=tb" + n);
    ok.headers().add("Contact", "<sip:b" + n + "@" + b_addr.to_string() + ":5060>");
    ok.set_body(sip::make_audio_sdp(b_addr.to_string(), b_port, 2).to_string(),
                "application/sdp");
    pkt::Packet ok_pkt =
        pkt::make_udp_packet({b_addr, 5060}, {a_addr, 5060}, from_string(ok.to_string()));
    ok_pkt.timestamp = static_cast<SimTime>(2 * i + 1) * usec(10);
    stream.warmup.push_back(std::move(ok_pkt));

    rtp::RtpHeader h;
    h.ssrc = static_cast<uint32_t>(draws.next());
    pkt::Packet flow = pkt::make_udp_packet({b_addr, b_port}, {a_addr, a_port},
                                            rtp::serialize_rtp(h, payload));
    // Zero checksum = "not computed" (RFC 768), so the RTP fields can be
    // patched in place per packet.
    flow.data[kUdpChecksumOffset] = 0;
    flow.data[kUdpChecksumOffset + 1] = 0;
    stream.flows.push_back(std::move(flow));
  }

  stream.first_rounds = kFanoutFirstRounds;
  stream.rounds_per_pass = kFanoutRoundsPerPass;
  stream.round_period = msec(20);
  stream.media_start = stream.warmup.back().timestamp + sec(1);
  // Every pass replays the same per-round orders, so packet i of one pass
  // is the same flow as packet i of any other.
  const uint32_t rounds = std::max(kFanoutFirstRounds, kFanoutRoundsPerPass);
  stream.order.reserve(sessions * rounds);
  std::vector<uint32_t> round(sessions);
  for (size_t i = 0; i < sessions; ++i) round[i] = static_cast<uint32_t>(i);
  for (uint32_t r = 0; r < rounds; ++r) {
    for (size_t i = sessions; i > 1; --i) std::swap(round[i - 1], round[draws.below(i)]);
    stream.order.insert(stream.order.end(), round.begin(), round.end());
  }
}

}  // namespace

namespace detail {

void patch_rtp(pkt::Packet& packet, uint64_t round, SimTime time) {
  const uint16_t seq = static_cast<uint16_t>(round);
  const uint32_t ts = static_cast<uint32_t>(round * 160);
  uint8_t* d = packet.data.data();
  d[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
  d[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq);
  d[kRtpTimestampOffset] = static_cast<uint8_t>(ts >> 24);
  d[kRtpTimestampOffset + 1] = static_cast<uint8_t>(ts >> 16);
  d[kRtpTimestampOffset + 2] = static_cast<uint8_t>(ts >> 8);
  d[kRtpTimestampOffset + 3] = static_cast<uint8_t>(ts);
  packet.timestamp = time;
}

}  // namespace detail

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kCarrierMix, Workload::kSignalingStorm, Workload::kMediaFanout}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kCarrierMix: return "carrier_mix";
    case Workload::kSignalingStorm: return "signaling_storm";
    case Workload::kMediaFanout: return "media_fanout";
  }
  return "?";
}

Stream generate(Workload workload, uint64_t seed, double scale) {
  Stream stream;
  stream.workload = workload;
  stream.seed = seed;
  switch (workload) {
    case Workload::kCarrierMix:
      generate_carrier(stream, capture::CarrierMixConfig{}, scaled(kCarrierMixPackets, scale));
      break;
    case Workload::kSignalingStorm:
      generate_carrier(stream, storm_mix(), scaled(kStormPackets, scale));
      break;
    case Workload::kMediaFanout:
      generate_fanout(stream, scaled(kFanoutSessions, scale));
      break;
  }

  const core::DistillerConfig ports;
  Hasher hash;
  hash.add(static_cast<uint64_t>(workload));
  for (const pkt::Packet& p : stream.warmup) {
    hash.add(p);
    stream.sip_packets += is_sip(p, ports);
  }
  for (const pkt::Packet& p : stream.packets) {
    hash.add(p);
    stream.sip_packets += is_sip(p, ports);
  }
  // A flow-template pass is a pure function of the templates, the order and
  // the timing parameters, so hashing those covers every packet it emits.
  for (const pkt::Packet& p : stream.flows) hash.add(p);
  for (uint32_t f : stream.order) hash.add(f);
  hash.add(stream.first_rounds);
  hash.add(stream.rounds_per_pass);
  hash.add(static_cast<uint64_t>(stream.media_start));
  hash.add(static_cast<uint64_t>(stream.round_period));
  stream.digest = hash.value();
  return stream;
}

std::string digest_hex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

Deployment deployment_for(Workload workload) {
  Deployment d;
  // EngineConfig{} is the shipped default: fast path on, stage timing on,
  // enforcement off.
  if (workload == Workload::kSignalingStorm) {
    d.engine.rules.spit_graylist = true;
    d.engine.enforce.mode = core::EnforcementMode::kInline;
    d.route_invite_by_caller = true;
  }
  return d;
}

}  // namespace perfbench
