#include "fuzz/fuzz_targets.h"

#include <span>
#include <sstream>
#include <string_view>

#include "capture/pcap.h"
#include "fleet/sep_wire.h"
#include "fuzz/sip_reference.h"
#include "pkt/fragment.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "ruledsl/loader.h"
#include "scidive/distiller.h"
#include "scidive/engine.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::fuzz {
namespace {

/// Iterate [u16 be length][bytes] records; a final short record is taken
/// as-is (fuzzers routinely truncate, and the tail bytes are still input).
template <typename Fn>
void for_each_record(const uint8_t* data, size_t size, Fn&& fn) {
  size_t pos = 0;
  while (pos + 2 <= size) {
    size_t len = static_cast<size_t>(data[pos]) << 8 | data[pos + 1];
    pos += 2;
    len = std::min(len, size - pos);
    fn(std::span<const uint8_t>(data + pos, len));
    pos += len;
    if (len == 0) break;  // zero-length records would loop forever
  }
}

}  // namespace

int fuzz_sip_message(const uint8_t* data, size_t size) {
  auto parsed = sip::SipMessage::parse(std::span<const uint8_t>(data, size));
  if (!parsed.ok()) return 0;
  const sip::SipMessage& msg = parsed.value();
  // Touch every lazy accessor; none may crash on a parsed message.
  (void)msg.call_id();
  (void)msg.cseq();
  (void)msg.from();
  (void)msg.to();
  (void)msg.contact();
  (void)msg.top_via();
  (void)msg.expires();
  (void)msg.max_forwards();
  (void)msg.well_formed();
  // Round trip: the serializer must accept anything the parser produced.
  (void)sip::SipMessage::parse(msg.to_string());
  return 0;
}

int fuzz_sip_scan(const uint8_t* data, size_t size) {
  // One buffer across inputs, as the distiller and the router keep theirs.
  static std::string fold_buf;
  std::string_view text(reinterpret_cast<const char*>(data), size);
  if (!sip_scan_divergences(text, fold_buf).empty()) __builtin_trap();
  return 0;
}

int fuzz_sdp(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto parsed = sip::Sdp::parse(text);
  if (parsed.ok()) {
    (void)parsed.value().audio();
    (void)sip::Sdp::parse(parsed.value().to_string());
  }
  return 0;
}

int fuzz_rtp(const uint8_t* data, size_t size) {
  auto parsed = rtp::parse_rtp(std::span<const uint8_t>(data, size));
  if (parsed.ok()) {
    Bytes wire = rtp::serialize_rtp(parsed.value().header, parsed.value().payload);
    (void)rtp::parse_rtp(wire);
  }
  return 0;
}

int fuzz_rtcp(const uint8_t* data, size_t size) {
  auto parsed = rtp::parse_rtcp(std::span<const uint8_t>(data, size));
  if (parsed.ok()) {
    const rtp::RtcpPacket& p = parsed.value();
    if (p.sr) (void)rtp::serialize_rtcp(*p.sr);
    if (p.rr) (void)rtp::serialize_rtcp(*p.rr);
    if (p.bye) (void)rtp::serialize_rtcp(*p.bye);
  }
  return 0;
}

int fuzz_fragment_reassembly(const uint8_t* data, size_t size) {
  pkt::Ipv4Reassembler reassembler;
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    (void)reassembler.push(record, now);
  });
  // Jump past the timeout so every pending assembly expires (leak check).
  (void)reassembler.expire(now + sec(60));
  return 0;
}

int fuzz_distiller(const uint8_t* data, size_t size) {
  core::Distiller distiller;
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    // The engine's bypass looks a flow up by the endpoints the header names
    // before the peek validates the packet: whenever the peek accepts, the
    // two must agree.
    if (auto peek = distiller.peek_rtp(packet)) {
      auto endpoints = core::Distiller::header_endpoints(packet);
      if (!endpoints || endpoints->first != peek->src || endpoints->second != peek->dst) {
        __builtin_trap();
      }
    }
    (void)distiller.distill(packet);
  });
  return 0;
}

int fuzz_engine(const uint8_t* data, size_t size) {
  core::EngineConfig config;
  config.obs.time_stages = false;  // determinism; wall clock is irrelevant here
  core::ScidiveEngine engine(config);
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    engine.on_packet(packet);
  });
  // Expiry past the last packet must reclaim every session: its record,
  // its media bindings and the session-keyed rules' state in it.
  engine.expire_idle(now + sec(120));
  const obs::Snapshot snap = engine.metrics_snapshot();
  if (engine.trails().session_count() != 0 || engine.trails().media_binding_count() != 0) {
    __builtin_trap();
  }
  for (const char* rule : {"billing-fraud", "register-flood", "password-guess"}) {
    if (snap.gauge_value("scidive_rule_state_entries", {{"rule", rule}}) != 0) __builtin_trap();
  }
  return 0;
}

int fuzz_ruledsl(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto ruleset = ruledsl::compile_ruleset_text(text, "<fuzz>");
  if (!ruleset.ok()) return 0;  // rejected with a diagnostic — the contract
  (void)ruleset.value().dump();

  // A ruleset that compiles must also *run*: sweep every subscribed event
  // type through each rule twice (first-touch and revisit paths) across two
  // sessions, so slot updates, branches and alert rendering all execute on
  // whatever programs the fuzzer evolved. Both sessions get a record first:
  // `key session` state lives there.
  std::vector<core::RulePtr> rules = ruledsl::make_rules(ruleset.value());
  const char* const sessions[] = {"fuzz-session", "fuzz-session-2"};
  core::TrailManager trails;
  for (const char* session : sessions) {
    core::Footprint fp;
    fp.protocol = core::Protocol::kAcc;
    fp.data = core::AccFootprint{.call_id = session};
    trails.add(std::move(fp));
  }
  trails.set_rule_layout(core::lay_out_rule_state(rules));
  core::AlertSink sink;
  core::RuleContext ctx(trails, sink);
  for (size_t position = 0; position < rules.size(); ++position) {
    const core::RulePtr& rule = rules[position];
    ctx.set_rule(position);
    for (int round = 0; round < 2; ++round) {
      for (size_t t = 0; t < core::kEventTypeCount; ++t) {
        if ((rule->subscriptions() >> t & 1) == 0) continue;
        core::Event event;
        event.type = static_cast<core::EventType>(t);
        event.session = sessions[round];
        event.time = sec(static_cast<int64_t>(t) + 1) * (round + 1);
        event.aor = "fuzz@lab.net";
        event.endpoint = {pkt::Ipv4Address(0x0a000002u + static_cast<uint32_t>(round)), 16384};
        event.value = static_cast<int64_t>(t) * 101 - 50;
        event.detail = "fuzz";
        rule->on_event(event, ctx);
      }
    }
    (void)rule->state_entries();
  }
  return 0;
}

int fuzz_verdict(const uint8_t* data, size_t size) {
  core::EngineConfig config;
  config.obs.time_stages = false;
  config.enforce.mode = core::EnforcementMode::kInline;
  // Hair-trigger prevention thresholds: two INVITEs from one caller inside
  // the window already graylist, so mutated SIP streams reach the verdict
  // and enforcement paths instead of dying in the parser.
  config.rules.spit_graylist = true;
  config.rules.spit_call_threshold = 2;
  core::ScidiveEngine engine(config);

  uint64_t counted[core::kVerdictActionCount] = {};
  SimTime now = 0;
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    // The non-mutating preview must be total and must not charge buckets:
    // any counter drift it caused would break the identity checked below.
    (void)engine.peek_packet(packet);
    ++counted[static_cast<size_t>(engine.on_packet(packet))];
  });
  engine.expire_idle(now + sec(120));
  (void)engine.metrics_snapshot();
  (void)engine.verdicts().verdicts();

  // Accounting identity: every inspected packet got exactly one decision,
  // and the engine's counters agree with the actions on_packet returned.
  uint64_t decided = 0;
  for (size_t a = 0; a < core::kVerdictActionCount; ++a) {
    if (engine.decisions(static_cast<core::VerdictAction>(a)) != counted[a]) {
      __builtin_trap();
    }
    decided += counted[a];
  }
  if (engine.stats().packets_inspected != decided) __builtin_trap();
  return 0;
}

namespace {

/// INVITE/200 between fixed endpoints plus a short steady RTP train, so the
/// established-flow fast path has a populated, actively bypassing flow-cache
/// entry before the fuzzer's records arrive.
void establish_cached_flow(core::ScidiveEngine& engine, SimTime upto) {
  const pkt::Endpoint a_sip{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  const pkt::Endpoint b_sip{pkt::Ipv4Address(10, 0, 0, 2), 5060};
  const pkt::Endpoint a_media{pkt::Ipv4Address(10, 0, 0, 1), 16384};
  const pkt::Endpoint b_media{pkt::Ipv4Address(10, 0, 0, 2), 16384};
  auto to_bytes = [](const std::string& s) { return Bytes(s.begin(), s.end()); };

  auto invite = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
  invite.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-fp-1");
  invite.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  invite.headers().add("To", "<sip:bob@lab.net>");
  invite.headers().add("Call-ID", "fastpath-call-1");
  invite.headers().add("CSeq", "1 INVITE");
  invite.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  invite.set_body(sip::make_audio_sdp("10.0.0.1", 16384, 1).to_string(), "application/sdp");
  pkt::Packet invite_pkt = pkt::make_udp_packet(a_sip, b_sip, to_bytes(invite.to_string()));
  invite_pkt.timestamp = msec(1);
  engine.on_packet(invite_pkt);

  auto ok = sip::SipMessage::response(200, "OK");
  ok.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-fp-1");
  ok.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  ok.headers().add("To", "<sip:bob@lab.net>;tag=tb");
  ok.headers().add("Call-ID", "fastpath-call-1");
  ok.headers().add("CSeq", "1 INVITE");
  ok.headers().add("Contact", "<sip:bob@10.0.0.2:5060>");
  ok.set_body(sip::make_audio_sdp("10.0.0.2", 16384, 2).to_string(), "application/sdp");
  pkt::Packet ok_pkt = pkt::make_udp_packet(b_sip, a_sip, to_bytes(ok.to_string()));
  ok_pkt.timestamp = msec(10);
  engine.on_packet(ok_pkt);

  const Bytes frame(160, 0xd5);
  SimTime now = msec(20);
  for (uint16_t i = 1; now < upto; ++i) {
    rtp::RtpHeader h;
    h.sequence = i;
    h.timestamp = static_cast<uint32_t>(i) * rtp::kSamplesPer20Ms;
    h.ssrc = 0xfa57;
    pkt::Packet p = pkt::make_udp_packet(b_media, a_media, rtp::serialize_rtp(h, frame));
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
}

}  // namespace

int fuzz_fastpath(const uint8_t* data, size_t size) {
  core::EngineConfig with_config;
  with_config.obs.time_stages = false;
  core::EngineConfig without_config = with_config;
  without_config.fastpath.enabled = false;
  core::ScidiveEngine with(with_config);
  core::ScidiveEngine without(without_config);

  // The deterministic prelude runs on both engines; by its end the
  // fastpath-on engine is mid-bypass on the call's media flow, so the
  // fuzzer's records land on an attached flow record and every mutation
  // that matters (SSRC flips, sequence jumps, BYEs, re-INVITEs, garbage)
  // is stepped on the bypass or re-routes the flow.
  establish_cached_flow(with, msec(200));
  establish_cached_flow(without, msec(200));

  SimTime now = msec(300);
  for_each_record(data, size, [&](std::span<const uint8_t> record) {
    now += msec(1);
    pkt::Packet packet;
    packet.data.assign(record.begin(), record.end());
    packet.timestamp = now;
    with.on_packet(packet);
    without.on_packet(packet);
  });
  with.expire_idle(now + sec(120));
  without.expire_idle(now + sec(120));
  (void)with.metrics_snapshot();
  (void)without.metrics_snapshot();

  // The fast path's core claim: bypassing steady-state media never changes
  // what is detected. Any divergence in the rendered alert sequence or the
  // packet accounting is a bug, not an interesting input.
  const std::vector<core::Alert>& got = with.alerts().alerts();
  const std::vector<core::Alert>& want = without.alerts().alerts();
  if (got.size() != want.size()) __builtin_trap();
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].to_string() != want[i].to_string()) __builtin_trap();
  }
  if (with.stats().packets_inspected != without.stats().packets_inspected) __builtin_trap();
  return 0;
}

namespace {

bool same_event(const core::Event& a, const core::Event& b) {
  return a.type == b.type && a.session == b.session && a.time == b.time && a.aor == b.aor &&
         a.endpoint == b.endpoint && a.value == b.value && a.detail == b.detail;
}

bool same_record(const fleet::SepRecord& a, const fleet::SepRecord& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&](const auto& ra) {
        using T = std::decay_t<decltype(ra)>;
        const T& rb = std::get<T>(b);
        if constexpr (std::is_same_v<T, core::Event>) {
          return same_event(ra, rb);
        } else {
          return ra == rb;
        }
      },
      a);
}

}  // namespace

int fuzz_sep_wire(const uint8_t* data, size_t size) {
  auto decoded = fleet::decode_frame(std::span<const uint8_t>(data, size));
  if (!decoded.ok()) return 0;
  const fleet::SepFrame& frame = decoded.value();

  // The round-trip invariant only covers frames this build fully owns:
  // unknown record types were skipped, not captured.
  if (frame.unknown_skipped != 0) return 0;
  if (frame.node.empty() || frame.node.size() > fleet::kMaxNodeNameBytes) __builtin_trap();

  for (bool compress : {false, true}) {
    fleet::SepEncoder enc(frame.node, frame.epoch);
    for (const fleet::SepRecord& rec : frame.records) {
      std::visit(
          [&](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, core::Event>) {
              enc.add_event(r);
            } else if constexpr (std::is_same_v<T, fleet::SepVerdict>) {
              enc.add_verdict(r);
            } else if constexpr (std::is_same_v<T, fleet::SepCounter>) {
              enc.add_counter(r);
            } else if constexpr (std::is_same_v<T, fleet::SepVouch>) {
              enc.add_vouch(r);
            } else {
              enc.add_handoff(r);
            }
          },
          rec);
    }
    auto again = fleet::decode_frame(enc.finish(compress));
    // The encoder's output is always a valid frame, and it must decode to
    // exactly the records that went in.
    if (!again.ok()) __builtin_trap();
    const fleet::SepFrame& back = again.value();
    if (back.node != frame.node || back.epoch != frame.epoch ||
        back.unknown_skipped != 0 ||
        back.records.size() != frame.records.size()) {
      __builtin_trap();
    }
    for (size_t i = 0; i < frame.records.size(); ++i) {
      if (!same_record(frame.records[i], back.records[i])) __builtin_trap();
    }
  }
  return 0;
}

int fuzz_pcap(const uint8_t* data, size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size),
                        std::ios::binary);
  capture::PcapFileSource source(in);

  // Bounded drain: packets are kept only up to a byte budget so oversized
  // (but in-bounds) captures cannot balloon memory.
  std::vector<pkt::Packet> kept;
  size_t kept_bytes = 0;
  pkt::Packet packet;
  while (source.next(&packet)) {
    if (kept_bytes + packet.data.size() <= (1u << 21)) {
      kept_bytes += packet.data.size();
      kept.push_back(std::move(packet));
    }
  }
  (void)source.error();
  if (!source.ok() || kept.empty()) return 0;

  // The stream decoded cleanly: re-export the packets under both link types
  // and re-read each. The writer is total over any decoded packet, and the
  // reader must accept everything the writer emits.
  for (capture::PcapLinkType link :
       {capture::PcapLinkType::kRaw, capture::PcapLinkType::kEthernet}) {
    std::ostringstream out(std::ios::binary);
    capture::PcapWriter writer(out, {.link = link});
    for (const pkt::Packet& p : kept) writer.write(p);
    std::istringstream back(out.str(), std::ios::binary);
    capture::PcapReader reader(back);
    pkt::Packet again;
    uint64_t reread = 0;
    while (reader.next(&again)) ++reread;
    if (!reader.error().empty() || reread != kept.size()) __builtin_trap();
  }
  return 0;
}

}  // namespace scidive::fuzz
