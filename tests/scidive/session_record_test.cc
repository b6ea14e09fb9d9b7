// Session records hold SIP footprints as one heap block each, owned by the
// ring slot. These tests pin what that ownership promises: a wrapping ring
// frees what it overwrites (memory stays flat however long a session runs),
// the blocks move with a handed-off record, and expiry frees them.
//
// Heap use is read through a replacement of the global operator new/delete
// that keeps a count of live bytes. The replacement covers the whole test
// binary; it forwards to malloc/free and only adds to the count.
#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "common/bytes.h"
#include "pkt/packet.h"
#include "scidive/alert.h"
#include "scidive/distiller.h"
#include "scidive/rule.h"
#include "scidive/rules.h"
#include "scidive/scidive_test_util.h"
#include "scidive/trail_manager.h"

namespace {

std::atomic<int64_t> g_live_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Every unaligned form is replaced, the nothrow ones included, so each
// delete frees what the matching new allocated. The aligned forms keep the
// library's own pair.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

int64_t live_heap_bytes() { return g_live_heap_bytes.load(std::memory_order_relaxed); }

constexpr size_t kRingBound = 16;

/// Same-sized texts on every footprint, so a freed block and its
/// replacement weigh the same and a bounded ring reads as a flat count.
std::string numbered(const char* prefix, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%05zu", prefix, i);
  return buf;
}

/// Appends 10 x kRingBound footprints through `add(i)` and checks that the
/// session arena and the live heap do not move once the ring has wrapped.
template <typename Add>
void expect_flat_after_first_wrap(TrailManager& tm, Add&& add) {
  size_t i = 0;
  for (; i <= kRingBound; ++i) add(i);  // fills the ring, then overwrites a slot
  const size_t arena = tm.arena_bytes_reserved();
  const int64_t heap = live_heap_bytes();
  int64_t heap_min = heap;
  int64_t heap_max = heap;
  for (; i < 10 * kRingBound; ++i) {
    add(i);
    EXPECT_EQ(tm.arena_bytes_reserved(), arena) << "after footprint " << i;
    heap_min = std::min(heap_min, live_heap_bytes());
    heap_max = std::max(heap_max, live_heap_bytes());
  }
  EXPECT_EQ(heap_min, heap);
  EXPECT_EQ(heap_max, heap);
  EXPECT_EQ(tm.session_count(), 1u);
}

TEST(SessionRecord, WrappingRingOfNamedCallStaysBounded) {
  TrailManager tm(kRingBound);
  expect_flat_after_first_wrap(tm, [&](size_t i) {
    tm.add(sip_request("MESSAGE", "call-wrap", numbered("sip:u", i) + "@carrier.example",
                       numbered("f", i), "sip:bob@carrier.example", numbered("t", i),
                       msec(static_cast<SimTime>(i)), ep(1, 5060), ep(2, 5060)));
  });
  const Trail* trail = tm.find("call-wrap", Protocol::kSip);
  ASSERT_NE(trail, nullptr);
  EXPECT_EQ(trail->size(), kRingBound);
  EXPECT_EQ(trail->total_appended(), 10 * kRingBound);
  // The newest footprint is intact in its overwritten slot.
  EXPECT_EQ(trail->back().sip()->from_aor, numbered("sip:u", 10 * kRingBound - 1) +
                                               "@carrier.example");
}

TEST(SessionRecord, WrappingRingOfUnparseableSipStaysBounded) {
  // Malformed SIP names no Call-ID, so all of it shares the "sip-anon"
  // session: a ring that wraps for as long as the garbage keeps coming.
  TrailManager tm(kRingBound);
  Distiller distiller;
  const pkt::Endpoint src{pkt::Ipv4Address(10, 0, 0, 66), 5060};
  const pkt::Endpoint dst{pkt::Ipv4Address(10, 0, 0, 1), 5060};
  expect_flat_after_first_wrap(tm, [&](size_t i) {
    pkt::Packet packet =
        pkt::make_udp_packet(src, dst, from_string(numbered("NOT SIP AT ALL ", i)));
    packet.timestamp = msec(static_cast<SimTime>(i));
    auto fp = distiller.distill(packet);
    ASSERT_TRUE(fp.has_value());
    ASSERT_NE(fp->sip(), nullptr);
    ASSERT_FALSE(fp->sip()->well_formed);
    tm.add(std::move(*fp));
  });
  const Trail* trail = tm.find("sip-anon", Protocol::kSip);
  ASSERT_NE(trail, nullptr);
  EXPECT_EQ(trail->size(), kRingBound);
  EXPECT_EQ(trail->back().sip()->method, "<unparseable>");
}

const pkt::Endpoint kAliceSip = ep(1, 5060);
const pkt::Endpoint kBobSip = ep(2, 5060);
const pkt::Endpoint kAliceMedia = ep(1, 16384);
const pkt::Endpoint kBobMedia = ep(2, 16384);

/// INVITE (alice's SDP), 200 OK (bob's SDP), then a BYE claiming alice.
void feed_torn_down_call(TrailManager& tm, const SessionId& call) {
  tm.add(sip_request("INVITE", call, "sip:alice@carrier.example", "alice-tag",
                     "sip:bob@carrier.example", "", msec(0), kAliceSip, kBobSip, kAliceMedia));
  tm.add(sip_response(200, "INVITE", call, "sip:alice@carrier.example", "alice-tag",
                      "sip:bob@carrier.example", "bob-tag", msec(40), kBobSip, kAliceSip,
                      kBobMedia));
  tm.add(sip_request("BYE", call, "sip:alice@carrier.example", "alice-tag",
                     "sip:bob@carrier.example", "bob-tag", msec(100), kAliceSip, kBobSip));
}

TEST(SessionRecord, FootprintsSurviveHandoff) {
  auto source = std::make_unique<TrailManager>();
  feed_torn_down_call(*source, "call-moved");
  TrailManager adopter;
  adopter.install_session(source->extract_session("call-moved"));
  source.reset();  // nothing of the source backs the moved footprints

  const Trail* sip = adopter.find("call-moved", Protocol::kSip);
  ASSERT_NE(sip, nullptr);
  ASSERT_EQ(sip->size(), 3u);
  const SipFootprint& invite = *sip->at(0).sip();
  EXPECT_EQ(invite.method, "INVITE");
  EXPECT_EQ(invite.call_id, "call-moved");
  EXPECT_EQ(invite.from_aor, "sip:alice@carrier.example");
  EXPECT_EQ(invite.from_tag, "alice-tag");
  EXPECT_EQ(invite.to_aor, "sip:bob@carrier.example");
  EXPECT_EQ(invite.sdp_media, kAliceMedia);
  const SipFootprint& ok = *sip->at(1).sip();
  EXPECT_EQ(ok.cseq_method, "INVITE");
  EXPECT_EQ(ok.to_tag, "bob-tag");
  EXPECT_EQ(ok.sdp_media, kBobMedia);
  EXPECT_EQ(sip->at(2).sip()->from_tag, "alice-tag");

  // The direct-scan BYE rule reads the BYE's tag and scans the trail for
  // the sender's SDP: media from the peer is not orphaned, media from the
  // BYE's sender is.
  std::vector<RulePtr> rules;
  rules.push_back(std::make_unique<DirectTrailScanByeRule>(msec(200)));
  Rule& rule = *rules[0];
  adopter.set_rule_layout(lay_out_rule_state(rules));
  AlertSink sink;
  RuleContext ctx(adopter, sink);
  ctx.set_rule(0);
  Event rtp{EventType::kRtpPacketSeen, "call-moved", msec(150), "", kBobMedia, 0, ""};
  rule.on_event(rtp, ctx);
  EXPECT_EQ(sink.count_for_rule("bye-attack-direct"), 0u);
  rtp.endpoint = kAliceMedia;
  rule.on_event(rtp, ctx);
  EXPECT_EQ(sink.count_for_rule("bye-attack-direct"), 1u);
}

TEST(SessionRecord, ExpiryFreesTheFootprints) {
  // The same session id comes and goes: once interned, a session that is
  // filled and expired must leave the heap where it found it.
  TrailManager tm;
  feed_torn_down_call(tm, "call-cycled");
  ASSERT_EQ(tm.expire_idle(sec(1)), 1u);
  const int64_t idle = live_heap_bytes();
  for (int cycle = 0; cycle < 5; ++cycle) {
    feed_torn_down_call(tm, "call-cycled");
    EXPECT_GE(live_heap_bytes(), idle + 3 * static_cast<int64_t>(sizeof(SipFootprint)));
    ASSERT_EQ(tm.expire_idle(sec(1)), 1u);
    EXPECT_EQ(tm.session_count(), 0u);
    EXPECT_EQ(live_heap_bytes(), idle) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace scidive::core
