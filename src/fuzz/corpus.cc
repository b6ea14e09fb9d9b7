#include "fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/strings.h"
#include "fleet/sep_wire.h"
#include "fuzz/mutator.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::fuzz {
namespace {

constexpr pkt::Ipv4Address kAlice{10, 0, 0, 1};
constexpr pkt::Ipv4Address kBob{10, 0, 0, 2};
constexpr pkt::Ipv4Address kProxy{10, 0, 0, 10};
constexpr uint16_t kSipPort = 5060;

sip::SipMessage basic_request(sip::Method method, const std::string& call_id,
                              uint32_t cseq) {
  auto uri = sip::SipUri::parse("sip:bob@lab.net");
  sip::SipMessage msg = sip::SipMessage::request(method, uri.value());
  msg.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK" + call_id);
  msg.headers().add("From", "\"Alice\" <sip:alice@lab.net>;tag=a" + call_id);
  msg.headers().add("To", "<sip:bob@lab.net>");
  msg.headers().add("Call-ID", call_id);
  msg.headers().add("CSeq", str::format("%u %s", cseq,
                                        std::string(sip::method_name(method)).c_str()));
  msg.headers().add("Max-Forwards", "70");
  msg.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  return msg;
}

sip::SipMessage basic_response(int code, const std::string& reason,
                               const std::string& call_id, uint32_t cseq,
                               const std::string& cseq_method) {
  sip::SipMessage msg = sip::SipMessage::response(code, reason);
  msg.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK" + call_id);
  msg.headers().add("From", "\"Alice\" <sip:alice@lab.net>;tag=a" + call_id);
  msg.headers().add("To", "<sip:bob@lab.net>;tag=b" + call_id);
  msg.headers().add("Call-ID", call_id);
  msg.headers().add("CSeq", str::format("%u %s", cseq, cseq_method.c_str()));
  return msg;
}

void add_sdp(sip::SipMessage& msg, const std::string& addr, uint16_t port) {
  sip::Sdp sdp = sip::make_audio_sdp(addr, port, /*session_id=*/1234);
  msg.set_body(sdp.to_string(), "application/sdp");
}

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

}  // namespace

std::vector<std::string> sip_seeds() {
  std::vector<std::string> out;

  auto invite = basic_request(sip::Method::kInvite, "seed-call-1", 1);
  add_sdp(invite, "10.0.0.1", 4000);
  out.push_back(invite.to_string());

  auto ok = basic_response(200, "OK", "seed-call-1", 1, "INVITE");
  add_sdp(ok, "10.0.0.2", 4002);
  out.push_back(ok.to_string());

  out.push_back(basic_request(sip::Method::kAck, "seed-call-1", 1).to_string());
  out.push_back(basic_request(sip::Method::kBye, "seed-call-1", 2).to_string());
  out.push_back(basic_response(200, "OK", "seed-call-1", 2, "BYE").to_string());

  auto reg = basic_request(sip::Method::kRegister, "seed-reg-1", 1);
  reg.headers().add("Expires", "3600");
  out.push_back(reg.to_string());

  auto challenge = basic_response(401, "Unauthorized", "seed-reg-1", 1, "REGISTER");
  challenge.headers().add(
      "WWW-Authenticate",
      "Digest realm=\"lab.net\", nonce=\"abcd1234\", algorithm=MD5");
  out.push_back(challenge.to_string());

  auto im = basic_request(sip::Method::kMessage, "seed-im-1", 1);
  im.set_body("hello from the corpus", "text/plain");
  out.push_back(im.to_string());

  auto reinvite = basic_request(sip::Method::kInvite, "seed-call-1", 3);
  add_sdp(reinvite, "10.0.0.1", 4010);
  out.push_back(reinvite.to_string());

  out.push_back(basic_response(180, "Ringing", "seed-call-1", 1, "INVITE").to_string());
  out.push_back(basic_response(486, "Busy Here", "seed-call-2", 1, "INVITE").to_string());
  out.push_back(basic_request(sip::Method::kOptions, "seed-opt-1", 1).to_string());
  return out;
}

std::vector<Bytes> rtp_seeds() {
  std::vector<Bytes> out;
  const Bytes frame(160, 0x7f);  // one 20 ms G.711 frame
  const uint16_t seqs[] = {0, 1, 1000, 65533, 65534, 65535};
  for (uint16_t seq : seqs) {
    rtp::RtpHeader h;
    h.sequence = seq;
    h.timestamp = static_cast<uint32_t>(seq) * rtp::kSamplesPer20Ms;
    h.ssrc = 0xdecade00 + (seq & 0xf);
    h.marker = seq == 0;
    out.push_back(rtp::serialize_rtp(h, frame));
  }
  rtp::RtpHeader with_csrc;
  with_csrc.sequence = 7;
  with_csrc.ssrc = 0x11112222;
  with_csrc.csrc = {0xaaaa0001, 0xaaaa0002};
  out.push_back(rtp::serialize_rtp(with_csrc, frame));

  rtp::RtpHeader tiny;
  tiny.sequence = 9;
  tiny.ssrc = 0x33334444;
  out.push_back(rtp::serialize_rtp(tiny, {}));  // header-only packet
  return out;
}

std::vector<Bytes> rtcp_seeds() {
  std::vector<Bytes> out;
  rtp::RtcpSenderReport sr;
  sr.ssrc = 0xdecade01;
  sr.ntp_timestamp = 0x83aa7e80'00000000ULL;
  sr.rtp_timestamp = 160 * 50;
  sr.packet_count = 50;
  sr.octet_count = 50 * 160;
  sr.reports.push_back({0x55556666, 3, 12, 70000, 40});
  out.push_back(rtp::serialize_rtcp(sr));

  rtp::RtcpReceiverReport rr;
  rr.ssrc = 0x55556666;
  rr.reports.push_back({0xdecade01, 0, 0, 50, 12});
  out.push_back(rtp::serialize_rtcp(rr));

  rtp::RtcpBye bye;
  bye.ssrcs = {0xdecade01};
  bye.reason = "teardown";
  out.push_back(rtp::serialize_rtcp(bye));

  rtp::RtcpBye empty_bye;
  out.push_back(rtp::serialize_rtcp(empty_bye));
  return out;
}

std::vector<Bytes> datagram_seeds() {
  std::vector<Bytes> out;
  uint16_t ip_id = 1;
  for (const std::string& msg : sip_seeds()) {
    out.push_back(pkt::make_udp_packet({kAlice, kSipPort}, {kBob, kSipPort},
                                       to_bytes(msg), ip_id++)
                      .data);
  }
  for (const Bytes& rtp : rtp_seeds()) {
    out.push_back(
        pkt::make_udp_packet({kAlice, 4000}, {kBob, 4002}, rtp, ip_id++).data);
  }
  for (const Bytes& rtcp : rtcp_seeds()) {
    out.push_back(
        pkt::make_udp_packet({kAlice, 4001}, {kBob, 4003}, rtcp, ip_id++).data);
  }
  // An ACC record shaped datagram at the accounting port.
  out.push_back(pkt::make_udp_packet(
                    {kProxy, 9009}, {kBob, 9009},
                    to_bytes("ACC START seed-call-1 alice@lab.net bob@lab.net"),
                    ip_id++)
                    .data);
  // Minimal and non-UDP datagrams exercise the carrier parsers.
  pkt::Ipv4Header icmp;
  icmp.protocol = pkt::kProtoIcmp;
  icmp.src = kAlice;
  icmp.dst = kBob;
  const uint8_t ping[] = {8, 0, 0, 0};
  out.push_back(pkt::serialize_ipv4(icmp, ping));
  pkt::Ipv4Header empty;
  empty.protocol = pkt::kProtoUdp;
  empty.src = kAlice;
  empty.dst = kBob;
  out.push_back(pkt::serialize_ipv4(empty, {}));
  return out;
}

std::vector<Bytes> sep_frame_seeds() {
  std::vector<Bytes> out;

  // One frame per record type, plus a kitchen-sink batch — uncompressed
  // and run-compressed — so a mutation is one structured step away from
  // every branch of the decoder.
  core::Event event;
  event.type = core::EventType::kRtpAfterBye;
  event.session = "seed-call-1";
  event.time = msec(1200);
  event.aor = "bob@lab.net";
  event.endpoint = {kBob, 4002};
  event.value = -7;
  event.detail = "RTP after BYE from the callee's old media endpoint";

  for (bool compress : {false, true}) {
    fleet::SepEncoder enc("ids-seed", /*epoch=*/3);
    enc.add_event(event);
    core::Event second = event;
    second.type = core::EventType::kSipByeSeen;
    second.time = event.time + msec(4);  // near-zero delta, the common case
    second.value = 0;
    second.detail.clear();
    enc.add_event(second);
    enc.add_verdict(fleet::SepVerdict{"spit-graylist", core::VerdictAction::kRateLimit,
                                      "seed-call-9", "spammer@lab.net", {kBob, 5083},
                                      msec(1500)});
    enc.add_counter(fleet::SepCounter{fleet::CounterKind::kRegisterFlood, "10.0.0.66",
                                      sec(10), 17});
    enc.add_vouch(fleet::SepVouch{fleet::VouchKind::kBye, "seed-call-1", msec(1190)});
    enc.add_handoff(fleet::SepHandoff{"seed-call-1", "ids-peer", 42});
    enc.add_hello();
    out.push_back(enc.finish(compress));
  }

  // A long-run detail makes the RLE branch genuinely shrink the body.
  fleet::SepEncoder runs("ids-seed", 3);
  core::Event padded = event;
  padded.detail = std::string(600, 'a');
  runs.add_event(padded);
  out.push_back(runs.finish(/*compress=*/true));
  return out;
}

std::vector<std::string> ruleset_seeds() {
  std::vector<std::string> out;

  // A stateless template-only rule (the rtp-attack shape).
  out.push_back(R"sdr(rule stateless-media {
  on RtpSeqJump {
    alert critical "sequence number jumped by {value} between consecutive RTP packets (bound 100)";
  }
  on NonRtpOnMediaPort {
    alert warning "undecodable datagram aimed at an active media port";
  }
}
)sdr");

  // Time-window guards: since()/within() over a time slot (the bye-attack
  // shape, §4.3 window m).
  out.push_back(R"sdr(# forged-BYE window rule
rule window-m {
  key session;
  state {
    time bye_at = never;
  }
  on SipByeSeen {
    set bye_at = time;
  }
  on RtpPacketSeen {
    if within(bye_at, 2s) {
      alert critical "RTP {since(bye_at)} after a BYE from {endpoint}";
    }
  }
}
)sdr");

  // Every slot type, literal inits, addr()/count()/has_trail(), eventset
  // accumulation, rendering formats and brace escapes.
  out.push_back(R"sdr(rule kitchen-sink {
  key aor;
  state {
    int hits = 0;
    duration budget = 1500ms;
    time first = never;
    bool primed = false;
    string label = "seed";
    addr origin;
    endpoint peer;
    eventset kinds;
  }
  on SipRegisterSeen, SipAuthFailure {
    add kinds;
    set hits = value;
    if first == never {
      set first = time;
      set origin = addr(endpoint);
      set peer = endpoint;
    }
    if count(kinds) >= 2 && !primed && has_trail("sip") {
      set primed = true;
      alert info "{{escaped}} {label}: {count(kinds)} kinds ({kinds}) from {peer} since {since(first):sec1}s ago";
    }
  }
}
)sdr");

  // Two rules in one file; comparison spread; else-branches; || and !=.
  out.push_back(R"sdr(rule pair-a {
  key session;
  state { int last = 0; bool seen = false; }
  on RtpSeqJump {
    if !seen {
      set seen = true;
      set last = value;
    } else {
      if value > last || value != 0 {
        alert warning "jump {value} after {last}";
      }
    }
  }
}

rule pair-b {
  on SipMalformed {
    alert info "malformed signaling: {detail}";
  }
}
)sdr");

  // Minimal rule — the smallest valid ruleset.
  out.push_back("rule tiny { on AccUnmatched { alert info \"acc\"; } }\n");
  return out;
}

std::vector<Bytes> load_corpus_dir(const std::string& dir) {
  std::vector<Bytes> out;
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    out.push_back(std::move(data));
  }
  return out;
}

std::vector<pkt::Packet> adversarial_stream(uint64_t seed, const StreamConfig& config) {
  Mutator mut(seed);
  Rng& rng = mut.rng();
  std::vector<pkt::Packet> stream;
  SimTime now = msec(1);
  auto stamp = [&](pkt::Packet p) {
    now += usec(rng.uniform_int(100, 5000));
    p.timestamp = now;
    stream.push_back(std::move(p));
  };

  uint16_t ip_id = 100;
  // Benign backbone: complete calls between distinct principals so the
  // stateful rules have real sessions to track.
  for (size_t call = 0; call < config.benign_calls; ++call) {
    const auto caller = pkt::Ipv4Address(10, 0, 1, static_cast<uint8_t>(1 + call));
    const auto callee = pkt::Ipv4Address(10, 0, 2, static_cast<uint8_t>(1 + call));
    const uint16_t caller_rtp = static_cast<uint16_t>(4000 + 4 * call);
    const uint16_t callee_rtp = static_cast<uint16_t>(4002 + 4 * call);
    const std::string call_id = str::format("adv-call-%zu", call);

    auto invite = basic_request(sip::Method::kInvite, call_id, 1);
    add_sdp(invite, caller.to_string(), caller_rtp);
    stamp(pkt::make_udp_packet({caller, kSipPort}, {callee, kSipPort},
                               to_bytes(invite.to_string()), ip_id++));

    auto ok = basic_response(200, "OK", call_id, 1, "INVITE");
    add_sdp(ok, callee.to_string(), callee_rtp);
    stamp(pkt::make_udp_packet({callee, kSipPort}, {caller, kSipPort},
                               to_bytes(ok.to_string()), ip_id++));

    stamp(pkt::make_udp_packet({caller, kSipPort}, {callee, kSipPort},
                               to_bytes(basic_request(sip::Method::kAck, call_id, 1).to_string()),
                               ip_id++));

    const Bytes frame(160, 0x7f);
    for (uint16_t i = 0; i < 10; ++i) {
      rtp::RtpHeader h;
      h.sequence = i;
      h.timestamp = i * rtp::kSamplesPer20Ms;
      h.ssrc = 0xabc00000 + static_cast<uint32_t>(call);
      stamp(pkt::make_udp_packet({caller, caller_rtp}, {callee, callee_rtp},
                                 rtp::serialize_rtp(h, frame), ip_id++));
    }

    stamp(pkt::make_udp_packet({caller, kSipPort}, {callee, kSipPort},
                               to_bytes(basic_request(sip::Method::kBye, call_id, 2).to_string()),
                               ip_id++));
    stamp(pkt::make_udp_packet({callee, kSipPort}, {caller, kSipPort},
                               to_bytes(basic_response(200, "OK", call_id, 2, "BYE").to_string()),
                               ip_id++));
  }

  // Mutated packets: each starts from a valid seed datagram.
  const std::vector<Bytes> seeds = datagram_seeds();
  const std::vector<std::string> sip = sip_seeds();
  for (size_t i = 0; i < config.mutated; ++i) {
    if (rng.chance(0.3)) {
      // SIP text mutation re-wrapped in a fresh valid carrier.
      const std::string& base = sip[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(sip.size()) - 1))];
      std::string twisted = mut.mutate_sip(base);
      stamp(pkt::make_udp_packet({kAlice, kSipPort}, {kBob, kSipPort},
                                 to_bytes(twisted), ip_id++));
    } else {
      pkt::Packet base;
      base.data = seeds[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(seeds.size()) - 1))];
      stamp(mut.mutate_packet(base));
    }
  }

  // Adversarial fragment trains built from oversized SIP datagrams.
  for (size_t i = 0; i < config.fragment_trains; ++i) {
    auto invite = basic_request(sip::Method::kInvite,
                                str::format("frag-call-%zu", i), 1);
    add_sdp(invite, "10.0.3.1", 4100);
    pkt::Packet whole = pkt::make_udp_packet({pkt::Ipv4Address(10, 0, 3, 1), kSipPort},
                                             {kBob, kSipPort},
                                             to_bytes(invite.to_string()), ip_id++);
    for (pkt::Packet& frag : mut.adversarial_fragments(whole)) stamp(std::move(frag));
  }

  // Raw garbage: random bytes, datagram-sized.
  for (size_t i = 0; i < config.garbage; ++i) {
    pkt::Packet junk;
    junk.data.resize(static_cast<size_t>(rng.uniform_int(1, 200)));
    for (auto& c : junk.data) c = static_cast<uint8_t>(rng.next_u32());
    stamp(std::move(junk));
  }
  return stream;
}

}  // namespace scidive::fuzz
