// Micro-benchmarks for the IDS pipeline — the paper's efficiency concerns
// (§1 "applicable in high throughput systems"; §6 "the efficiency of the
// algorithm for creating events from footprints and matching events against
// the rule set will affect the detection latency").
//
// google-benchmark; run with --benchmark_filter=... to narrow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/md5.h"
#include "fleet/correlate.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "pkt/packet.h"
#include "ruledsl/loader.h"
#include "rtp/rtp.h"
#include "scidive/distiller.h"
#include "scidive/engine.h"
#include "scidive/rule.h"
#include "scidive/rules.h"
#include "scidive/shard_router.h"
#include "scidive/sharded_engine.h"
#include "scidive/trail_manager.h"
#include "sip/message.h"
#include "sip/scan.h"
#include "sip/sdp.h"

// Global allocation counter (this binary only) so the *_Allocs benchmarks
// can prove the hot paths are allocation-free rather than just fast. Every
// replaced form goes through one out-of-line pair, so no caller sees a
// new inlined into malloc meet a delete inlined into free.
static std::atomic<uint64_t> g_alloc_count{0};

namespace {

[[gnu::noinline]] void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

using namespace scidive;

namespace {

// Offsets into a minimal IPv4(20B) + UDP(8B) datagram.
constexpr size_t kUdpChecksumOffset = 20 + 6;
constexpr size_t kRtpSeqOffset = 20 + 8 + 2;

/// Zero the UDP checksum ("not computed" per RFC 768) so payload bytes can
/// be patched in place between iterations without re-checksumming.
void disable_udp_checksum(pkt::Packet& p) {
  p.data[kUdpChecksumOffset] = 0;
  p.data[kUdpChecksumOffset + 1] = 0;
}

const pkt::Endpoint kASip{pkt::Ipv4Address(10, 0, 0, 1), 5060};
const pkt::Endpoint kBSip{pkt::Ipv4Address(10, 0, 0, 2), 5060};
const pkt::Endpoint kAMedia{pkt::Ipv4Address(10, 0, 0, 1), 16384};
const pkt::Endpoint kBMedia{pkt::Ipv4Address(10, 0, 0, 2), 16384};

std::string make_invite_text() {
  auto m = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
  m.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-bench-1");
  m.headers().add("Max-Forwards", "70");
  m.headers().add("From", "\"Alice\" <sip:alice@lab.net>;tag=ta");
  m.headers().add("To", "<sip:bob@lab.net>");
  m.headers().add("Call-ID", "bench-call-1");
  m.headers().add("CSeq", "1 INVITE");
  m.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
  m.set_body(sip::make_audio_sdp("10.0.0.1", 16384, 1).to_string(), "application/sdp");
  return m.to_string();
}

/// INVITE + 200 OK so the bench call's media correlates into a session.
/// `Ingest` is any packet consumer: an engine, a sharded engine, a fleet.
template <typename Ingest>
void establish_bench_call(Ingest& engine) {
  auto invite = pkt::make_udp_packet(kASip, kBSip, from_string(make_invite_text()));
  invite.timestamp = 0;
  engine.on_packet(invite);
  auto ok = sip::SipMessage::response(200, "OK");
  ok.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-bench-1");
  ok.headers().add("From", "<sip:alice@lab.net>;tag=ta");
  ok.headers().add("To", "<sip:bob@lab.net>;tag=tb");
  ok.headers().add("Call-ID", "bench-call-1");
  ok.headers().add("CSeq", "1 INVITE");
  ok.headers().add("Contact", "<sip:bob@10.0.0.2:5060>");
  ok.set_body(sip::make_audio_sdp("10.0.0.2", 16384, 2).to_string(), "application/sdp");
  auto ok_pkt = pkt::make_udp_packet(kBSip, kASip, from_string(ok.to_string()));
  ok_pkt.timestamp = msec(10);
  engine.on_packet(ok_pkt);
}

pkt::Packet make_rtp_pkt(uint16_t seq) {
  rtp::RtpHeader h;
  h.sequence = seq;
  h.timestamp = static_cast<uint32_t>(seq) * 160;
  h.ssrc = 0xb0b;
  Bytes payload(160, 0xd5);
  return pkt::make_udp_packet(kBMedia, kAMedia, rtp::serialize_rtp(h, payload));
}

void BM_SipParse(benchmark::State& state) {
  std::string text = make_invite_text();
  for (auto _ : state) {
    auto msg = sip::SipMessage::parse(text);
    benchmark::DoNotOptimize(msg);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_SipParse);

void BM_SipSerialize(benchmark::State& state) {
  auto msg = sip::SipMessage::parse(make_invite_text()).value();
  for (auto _ : state) {
    std::string wire = msg.to_string();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SipSerialize);

void BM_SdpParse(benchmark::State& state) {
  std::string sdp = sip::make_audio_sdp("10.0.0.1", 16384, 1).to_string();
  for (auto _ : state) {
    auto parsed = sip::Sdp::parse(sdp);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SdpParse);

void BM_RtpParse(benchmark::State& state) {
  rtp::RtpHeader h;
  h.sequence = 1000;
  h.ssrc = 7;
  Bytes payload(160, 0xd5);
  Bytes wire = rtp::serialize_rtp(h, payload);
  for (auto _ : state) {
    auto parsed = rtp::parse_rtp(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_RtpParse);

void BM_Md5Digest(benchmark::State& state) {
  std::string input = "alice:lab.net:alice-pass";
  for (auto _ : state) {
    auto digest = Md5::hex(input);
    benchmark::DoNotOptimize(digest);
  }
}
BENCHMARK(BM_Md5Digest);

/// The RFC 1071 sum over an IPv4 header (20), a small SIP/RTP datagram
/// (180), an INVITE with SDP (600) and a full Ethernet MTU (1500).
void BM_Ipv4Checksum(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    uint16_t csum = internet_checksum(data);
    benchmark::DoNotOptimize(csum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Ipv4Checksum)->Arg(20)->Arg(180)->Arg(600)->Arg(1500);

/// The one-pass scan the distiller makes of a SIP payload (footprint
/// mode): compare BM_SipParse, which builds the endpoint's full model.
void BM_SipScan(benchmark::State& state) {
  std::string text = make_invite_text();
  std::string fold_buf;
  sip::SipScan scan;
  for (auto _ : state) {
    Errc err = sip::scan_sip(text, fold_buf, scan);
    benchmark::DoNotOptimize(err);
    benchmark::DoNotOptimize(scan);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_SipScan);

/// The shard router on an INVITE with SDP: carrier validation, the
/// keys-only scan, the Call-ID hash and the media binding refresh.
void BM_RouteSipPacket(benchmark::State& state) {
  core::ShardRouter router(core::ShardRouterConfig{});
  auto p = pkt::make_udp_packet(kASip, kBSip, from_string(make_invite_text()));
  for (auto _ : state) {
    auto routed = router.route(p);
    benchmark::DoNotOptimize(routed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * p.data.size()));
}
BENCHMARK(BM_RouteSipPacket);

/// Scanning and routing SIP allocate nothing: an unfolded INVITE with SDP
/// is scanned in footprint mode and routed by a warm router (its media
/// binding already learned), and allocs_per_op must read 0.
void BM_SipScanAllocs(benchmark::State& state) {
  const std::string text = make_invite_text();
  std::string fold_buf;
  sip::SipScan scan;
  core::ShardRouter router(core::ShardRouterConfig{});
  auto p = pkt::make_udp_packet(kASip, kBSip, from_string(text));
  (void)router.route(p);
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Errc err = sip::scan_sip(text, fold_buf, scan);
    benchmark::DoNotOptimize(err);
    auto routed = router.route(p);
    benchmark::DoNotOptimize(routed);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SipScanAllocs);

void BM_DistillSipPacket(benchmark::State& state) {
  core::Distiller distiller;
  auto p = pkt::make_udp_packet(kASip, kBSip, from_string(make_invite_text()));
  for (auto _ : state) {
    auto fp = distiller.distill(p);
    benchmark::DoNotOptimize(fp);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * p.data.size()));
}
BENCHMARK(BM_DistillSipPacket);

void BM_DistillRtpPacket(benchmark::State& state) {
  core::Distiller distiller;
  auto p = make_rtp_pkt(100);
  for (auto _ : state) {
    auto fp = distiller.distill(p);
    benchmark::DoNotOptimize(fp);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * p.data.size()));
}
BENCHMARK(BM_DistillRtpPacket);

/// Garbage on an RTP port (the flood of the §3.3 RTP attack) distills to an
/// inline UnknownFootprint carrying the parser's Errc: allocs_per_op must
/// read 0. The payloads cycle through the RTP parser's rejections: a wrong
/// version, a truncated header, CSRCs past the end, a truncated extension,
/// and padding longer than the packet; the last one goes to the RTCP port,
/// where the speculative RTCP parse rejects its version first.
void BM_DistillGarbageAllocs(benchmark::State& state) {
  const pkt::Endpoint src{pkt::Ipv4Address(10, 0, 0, 66), 16384};
  const pkt::Endpoint dst{pkt::Ipv4Address(10, 0, 0, 1), 16384};
  std::vector<pkt::Packet> garbage;
  for (Bytes payload : {Bytes(172, 0x3c), Bytes(8, 0x80), Bytes(20, 0x8f), Bytes(14, 0x90),
                        Bytes(100, 0xa0)}) {
    garbage.push_back(pkt::make_udp_packet(src, dst, payload));
  }
  garbage.push_back(pkt::make_udp_packet({src.addr, 16385}, {dst.addr, 16385}, Bytes(172, 0x3c)));
  core::Distiller distiller;
  size_t i = 0;
  uint64_t unknown = 0;
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto fp = distiller.distill(garbage[i]);
    unknown += fp && fp->unknown() != nullptr;
    benchmark::DoNotOptimize(fp);
    i = i + 1 == garbage.size() ? 0 : i + 1;
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  const double iterations = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(static_cast<double>(allocs) / iterations);
  state.counters["unknown_share"] = benchmark::Counter(static_cast<double>(unknown) / iterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DistillGarbageAllocs);

/// Cost per in-session RTP packet. Arg(0) pins the full pipeline — distill
/// -> trail -> event generation -> rules (the common case the paper
/// optimizes with the event abstraction); Arg(1) is the default engine with
/// the established-flow fast path, where steady media settles onto the
/// header-peek bypass. The delta is the fast path's single-engine win.
/// The second argument switches sampled stage timing off (0) or on (1, the
/// default); the on/off delta is the price of timing.
void BM_EngineRtpPacket(benchmark::State& state) {
  core::EngineConfig config;
  config.fastpath.enabled = state.range(0) != 0;
  config.obs.time_stages = state.range(1) != 0;
  core::ScidiveEngine engine(config);
  // Establish the session so RTP correlates.
  establish_bench_call(engine);

  // One pre-built packet, re-sequenced in place each iteration: the loop
  // measures the IDS pipeline, not packet construction.
  pkt::Packet p = make_rtp_pkt(0);
  disable_udp_checksum(p);
  uint16_t seq = 0;
  SimTime now = msec(100);
  for (auto _ : state) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::string(config.fastpath.enabled ? "fastpath=on" : "fastpath=off") +
                 (config.obs.time_stages ? " timing=on" : " timing=off"));
}
BENCHMARK(BM_EngineRtpPacket)->ArgsProduct({{0, 1}, {0, 1}});

/// A stream of INVITEs, each opening a fresh session. Per-iteration
/// PauseTiming/ResumeTiming costs far more than the work being measured, so
/// next() patches a fixed-width counter into one pre-built packet instead,
/// and a timed loop contains only the IDS. The counter numbers the Call-ID,
/// and with `fresh_callers` the caller's AOR too.
class InviteStream {
 public:
  explicit InviteStream(bool fresh_callers = false) {
    auto m = sip::SipMessage::request(sip::Method::kInvite, sip::SipUri("bob", "lab.net"));
    m.headers().add("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-bench-1");
    m.headers().add("Max-Forwards", "70");
    m.headers().add("From", fresh_callers ? "<sip:caller-00000000@lab.net>;tag=ta"
                                          : "\"Alice\" <sip:alice@lab.net>;tag=ta");
    m.headers().add("To", "<sip:bob@lab.net>");
    m.headers().add("Call-ID", "bench-call-00000000");
    m.headers().add("CSeq", "1 INVITE");
    m.headers().add("Contact", "<sip:alice@10.0.0.1:5060>");
    m.set_body(sip::make_audio_sdp("10.0.0.1", 16384, 1).to_string(), "application/sdp");
    packet_ = pkt::make_udp_packet(kASip, kBSip, from_string(m.to_string()));
    disable_udp_checksum(packet_);
    for (const std::string marker : {"bench-call-", "caller-"}) {
      auto it =
          std::search(packet_.data.begin(), packet_.data.end(), marker.begin(), marker.end());
      if (it != packet_.data.end()) {
        digits_at_.push_back(static_cast<size_t>(it - packet_.data.begin()) + marker.size());
      }
    }
  }

  const pkt::Packet& next() {
    const uint64_t n = n_++;
    for (size_t at : digits_at_) {
      uint64_t id = n;
      for (size_t d = 0; d < 8; ++d) {
        packet_.data[at + 7 - d] = static_cast<uint8_t>('0' + id % 10);
        id /= 10;
      }
    }
    packet_.timestamp = (now_ += msec(1));
    return packet_;
  }

 private:
  pkt::Packet packet_;
  std::vector<size_t> digits_at_;
  SimTime now_ = 0;
  uint64_t n_ = 0;
};

/// Cost per INVITE, each opening a fresh session. The argument switches
/// sampled stage timing off (0) or on (1, the default).
void BM_EngineSipPacket(benchmark::State& state) {
  core::EngineConfig config;
  config.obs.time_stages = state.range(0) != 0;
  core::ScidiveEngine engine(config);
  InviteStream invites;
  for (auto _ : state) {
    engine.on_packet(invites.next());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(config.obs.time_stages ? "timing=on" : "timing=off");
}
BENCHMARK(BM_EngineSipPacket)->Arg(0)->Arg(1);

/// Heap allocations per INVITE of BM_EngineSipPacket's stream, default
/// engine. A new session's INVITE pays for its footprint block, its session
/// record with its bookkeeping (arming the record's expiry wake allocates
/// nothing), and the event it raises; check_allocs.py
/// holds the count at a ceiling (CEILINGS) so per-footprint boxes and
/// strings cannot creep back.
void BM_EngineSipPacketAllocs(benchmark::State& state) {
  core::ScidiveEngine engine;
  InviteStream invites;
  for (int i = 0; i < 1000; ++i) engine.on_packet(invites.next());  // warm tables
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    engine.on_packet(invites.next());
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSipPacketAllocs);

/// Heap allocations per INVITE with spit-graylist installed, each INVITE
/// from a fresh caller AOR in a fresh session: on top of what
/// BM_EngineSipPacketAllocs counts, the caller's principal record and the
/// one rule-state block its spit-graylist state lives in (plus the AOR's
/// interned name). check_allocs.py holds it at a ceiling (CEILINGS).
void BM_EngineSpitInviteAllocs(benchmark::State& state) {
  core::EngineConfig config;
  config.rules.spit_graylist = true;
  core::ScidiveEngine engine(config);
  InviteStream invites(/*fresh_callers=*/true);
  for (int i = 0; i < 1000; ++i) engine.on_packet(invites.next());  // warm tables
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    engine.on_packet(invites.next());
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSpitInviteAllocs);

/// Repeated spit-graylist events on one existing principal: the rule finds
/// its area in the principal's rule-state block and updates its slots in
/// place, its 60 s window tumbling every 6000 events. The threshold is out
/// of reach, so no alert is formatted: allocs_per_op must read 0.
void BM_RuleStateUpdateAllocs(benchmark::State& state) {
  core::RulesConfig config;
  config.spit_graylist = true;
  config.spit_call_threshold = std::numeric_limits<int>::max();
  std::vector<core::RulePtr> rules = core::make_default_ruleset(config);
  size_t spit = 0;
  while (rules[spit]->name() != "spit-graylist") ++spit;
  core::TrailManager trails;
  trails.set_rule_layout(core::Ruleset(rules).layout());
  core::AlertSink sink;
  core::RuleContext ctx(trails, sink);
  ctx.set_rule(spit);
  core::Event event{};
  event.type = core::EventType::kSipInviteSeen;
  event.session = "bench-call-1";
  event.aor = "sip:caller@lab.net";
  rules[spit]->on_event(event, ctx);  // the principal's record and block
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    event.time += msec(10);
    rules[spit]->on_event(event, ctx);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(trails.rule_state_counts(rules.size())[spit] == 1 ? "principals=1"
                                                                    : "principals=missing");
}
BENCHMARK(BM_RuleStateUpdateAllocs);

/// Steady-state media routing must be allocation-free: once a flow's first
/// packet has populated TrailManager's flow cache, classifying further
/// packets builds no session strings. allocs_per_op must read 0.00.
///
/// Arg(0) = bare routing; Arg(1) additionally performs the engine's
/// per-packet metric recording (interned counter inc + stage-latency
/// histogram observe) to prove instrumentation keeps the hot path at zero
/// allocations — instruments are interned once before the timed loop, as
/// the engine interns them at construction.
void BM_TrailRouteRtpAllocs(benchmark::State& state) {
  const bool with_metrics = state.range(0) != 0;
  obs::MetricsRegistry registry;
  obs::Counter& routed = registry.counter("bench_routed_total", "Packets routed");
  obs::Histogram& stage_ns = registry.histogram(
      "bench_stage_ns", "Per-stage latency", obs::latency_ns_bounds(), {{"stage", "route"}});
  core::TrailManager tm;
  tm.bind_media_endpoint(kAMedia, "bench-call-1");
  core::Footprint fp;
  fp.protocol = core::Protocol::kRtp;
  fp.time = 0;
  fp.src = kBMedia;
  fp.dst = kAMedia;
  fp.wire_len = 200;
  fp.data = core::RtpFootprint{.ssrc = 0xb0b, .sequence = 0, .timestamp = 0,
                               .payload_type = 1, .payload_len = 160};
  tm.add(fp);  // warms the flow cache and creates the trail
  uint64_t tick = 0;
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    core::Trail& t = tm.route(fp);
    benchmark::DoNotOptimize(&t);
    if (with_metrics) {
      routed.inc();
      stage_ns.observe(++tick % 100'000);  // sweeps every bucket over the run
    }
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(with_metrics ? "metrics=on" : "metrics=off");
}
BENCHMARK(BM_TrailRouteRtpAllocs)->Arg(0)->Arg(1);

/// Same property one level up: add() = route + ring append. Once the trail
/// ring has grown to its bound, appends overwrite in place — steady state
/// stays allocation-free end to end inside the TrailManager.
void BM_TrailAddRtpAllocs(benchmark::State& state) {
  core::TrailManager tm(/*max_footprints_per_trail=*/256);
  tm.bind_media_endpoint(kAMedia, "bench-call-1");
  core::Footprint fp;
  fp.protocol = core::Protocol::kRtp;
  fp.time = 0;
  fp.src = kBMedia;
  fp.dst = kAMedia;
  fp.wire_len = 200;
  fp.data = core::RtpFootprint{.ssrc = 0xb0b, .sequence = 0, .timestamp = 0,
                               .payload_type = 1, .payload_len = 160};
  for (int i = 0; i < 300; ++i) tm.add(fp);  // fill the ring past its bound
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    core::Trail& t = tm.add(fp);
    benchmark::DoNotOptimize(&t);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrailAddRtpAllocs);

/// Allocations per in-session RTP packet through the whole engine
/// (distill + route + events + rules). The established-flow fast path is
/// explicitly disabled so this keeps measuring the full slow pipeline —
/// otherwise every post-warm-up packet would take the bypass and the
/// distiller/event/rule steady state would go unguarded (that path has its
/// own guard, BM_EngineRtpFastpathAllocs). Not asserted to be zero — the
/// distiller's footprint and event scratch work are measured here — but
/// tracked so regressions are visible. The default ruleset is compiled
/// .sdr rules, so this also shows that the rule interpreter's steady state
/// adds no allocations of its own: per-session records exist after
/// warm-up, so a transition program runs on slot arithmetic alone. Stage
/// timing is on (the default), so the loop includes sampled packets.
void BM_EngineRtpPacketAllocs(benchmark::State& state) {
  core::EngineConfig config;
  config.fastpath.enabled = false;  // measure the slow pipeline, not the bypass
  core::ScidiveEngine engine(config);
  establish_bench_call(engine);

  pkt::Packet p = make_rtp_pkt(0);
  disable_udp_checksum(p);
  uint16_t seq = 0;
  SimTime now = msec(100);
  // Warm-up so one-time growth (scratch vectors, hash buckets) is excluded.
  for (int i = 0; i < 1000; ++i) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRtpPacketAllocs);

/// The established-flow fast path itself: a default engine (fastpath on),
/// one steady in-session RTP flow. The warm-up populates the flow cache, so
/// every measured packet must take the header-peek bypass — the label
/// records the measured bypass share so a silently disengaged fast path
/// (share ~0) is visible, and check_allocs.py fails the build on it. The
/// bypass is FlatMap lookup + microstate arithmetic only: allocs_per_op
/// must read 0.00, sampled (timed) packets included. The compiled-rule
/// interest analysis must find no steady-state media interest in the
/// default ruleset, or the bypass never engages.
void BM_EngineRtpFastpathAllocs(benchmark::State& state) {
  core::ScidiveEngine engine;  // default config: fastpath enabled
  establish_bench_call(engine);

  pkt::Packet p = make_rtp_pkt(0);
  disable_udp_checksum(p);
  uint16_t seq = 0;
  SimTime now = msec(100);
  for (int i = 0; i < 1000; ++i) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const uint64_t bypassed_before = engine.fastpath_bypassed();
  for (auto _ : state) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  const double share =
      static_cast<double>(engine.fastpath_bypassed() - bypassed_before) /
      static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["bypassed_share"] = benchmark::Counter(share);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineRtpFastpathAllocs);

/// The inline-prevention variant of the RTP hot path: enforcement mode
/// kInline with SPIT graylisting installed and a standing rate limit
/// armed on the media source, so every packet takes the full decision path
/// — block-list lookup, token-bucket charge, pending-verdict fold — on top
/// of detection. The decision layer is FlatMap lookups and token arithmetic
/// only; steady state must stay at zero allocs/op like the passive path.
void BM_EngineRtpVerdictAllocs(benchmark::State& state) {
  core::EngineConfig config;
  config.obs.time_stages = false;
  config.enforce.mode = core::EnforcementMode::kInline;
  config.rules.spit_graylist = true;
  core::ScidiveEngine engine(config);
  establish_bench_call(engine);

  // Graylist the media source so the bucket-charge branch (not just the
  // miss path) is what gets measured.
  core::Verdict graylist;
  graylist.rule = "bench-graylist";
  graylist.action = core::VerdictAction::kRateLimit;
  graylist.endpoint = kBMedia;
  graylist.time = msec(50);
  engine.enforcer()->apply(graylist);

  pkt::Packet p = make_rtp_pkt(0);
  disable_udp_checksum(p);
  uint16_t seq = 0;
  SimTime now = msec(100);
  for (int i = 0; i < 1000; ++i) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    engine.on_packet(p);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const uint64_t limited = engine.decisions(core::VerdictAction::kRateLimit);
  state.SetLabel(limited > 0 ? "decisions=limiting" : "decisions=pass-only");
}
BENCHMARK(BM_EngineRtpVerdictAllocs);

/// Steady in-session RTP through a multi-worker front-end: the producer
/// routes each packet and copies it into a ring slot, the worker processes
/// it there. Ring slots keep their datagram buffers across laps, so past
/// the first lap neither thread allocates: allocs_per_op must read 0. The
/// counter is global, so worker-thread allocations count; flush() before
/// reading it makes sure every measured packet has been processed.
template <typename Ingest>
void measure_ingest_allocs(benchmark::State& state, Ingest& ingest, size_t ring_slots) {
  establish_bench_call(ingest);
  pkt::Packet p = make_rtp_pkt(0);
  disable_udp_checksum(p);
  uint16_t seq = 0;
  SimTime now = msec(100);
  const auto feed = [&] {
    ++seq;
    p.data[kRtpSeqOffset] = static_cast<uint8_t>(seq >> 8);
    p.data[kRtpSeqOffset + 1] = static_cast<uint8_t>(seq & 0xff);
    p.timestamp = (now += msec(20));
    ingest.on_packet(p);
  };
  // Warm-up laps every ring slot once, so each has grown its buffer.
  for (size_t i = 0; i < 2 * ring_slots; ++i) feed();
  ingest.flush();
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) feed();
  ingest.flush();
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/// A 2-worker ShardedEngine fed through on_packet(const Packet&).
void BM_ShardedRtpAllocs(benchmark::State& state) {
  core::ShardedEngineConfig config;
  config.num_shards = 2;
  core::ShardedEngine engine(config);
  measure_ingest_allocs(state, engine, config.queue_capacity);
}
BENCHMARK(BM_ShardedRtpAllocs)->UseRealTime();

/// A 2-node Fleet, one worker per node: fleet routing, then the owning
/// node's ring. Gossip pumps every 1024 packets, so the control plane's
/// own bookkeeping shows up as a small fraction of an allocation per op.
void BM_FleetRtpAllocs(benchmark::State& state) {
  fleet::FleetConfig config;
  config.node.engine.num_shards = 1;
  fleet::Fleet fleet(config, {"node-0", "node-1"});
  measure_ingest_allocs(state, fleet, config.node.engine.queue_capacity);
}
BENCHMARK(BM_FleetRtpAllocs)->UseRealTime();

/// The fleet correlator's steady state beside 1000 idle windows: a local
/// REGISTER advances an existing window, then the threshold pass visits
/// just that dirty window (below the threshold, so nothing is raised). The
/// flat table, the dirty list and the partial returned for gossip all reuse
/// their storage: allocs_per_op must read 0, windows_per_evaluate 1.
void BM_FleetCorrelatorAllocs(benchmark::State& state) {
  fleet::CorrelatorConfig config;
  config.register_flood_threshold = std::numeric_limits<uint64_t>::max();
  fleet::FleetCorrelator correlator("node-0", config);
  const std::function<bool(std::string_view)> is_owner = [](std::string_view) { return true; };
  core::Event event{};
  event.type = core::EventType::kSipRegisterSeen;
  event.time = sec(1);
  for (uint32_t i = 0; i < 1000; ++i) {
    event.endpoint = {pkt::Ipv4Address(0x0b000000u + i), 5060};
    correlator.on_local_event(event);
  }
  event.endpoint = {pkt::Ipv4Address(10, 0, 0, 66), 5060};
  correlator.on_local_event(event);
  correlator.evaluate(is_owner);
  const uint64_t evaluated = correlator.stats().windows_evaluated;
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto partial = correlator.on_local_event(event);
    benchmark::DoNotOptimize(partial);
    auto alerts = correlator.evaluate(is_owner);
    benchmark::DoNotOptimize(alerts.data());
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  const double iterations = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(static_cast<double>(allocs) / iterations);
  state.counters["windows_per_evaluate"] = benchmark::Counter(
      static_cast<double>(correlator.stats().windows_evaluated - evaluated) / iterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FleetCorrelatorAllocs);

void BM_EngineGarbagePacket(benchmark::State& state) {
  core::ScidiveEngine engine;
  Bytes garbage(200, 0xa5);
  pkt::Packet p;
  p.data = garbage;
  for (auto _ : state) {
    engine.on_packet(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineGarbagePacket);

/// What a process pays once per distinct RulesConfig (default_ruleset
/// memoises the result for every engine, shard and fleet node): compiling
/// the embedded default ruleset into a Ruleset. Arg(1) includes
/// spit-graylist.
void BM_MakeDefaultRuleset(benchmark::State& state) {
  core::RulesConfig config;
  config.spit_graylist = state.range(0) != 0;
  for (auto _ : state) {
    core::RulesetPtr rules =
        ruledsl::make_ruleset(ruledsl::compile_default_ruleset(config).value());
    benchmark::DoNotOptimize(rules.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeDefaultRuleset)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
