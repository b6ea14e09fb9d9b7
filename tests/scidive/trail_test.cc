#include "scidive/trail.h"

#include <gtest/gtest.h>

#include "scidive/trail_manager.h"
#include "scidive/scidive_test_util.h"

namespace scidive::core {
namespace {

using namespace scidive::core::testing;

TEST(Trail, AppendsAndTracksTimes) {
  Trail t(TrailKey{"s1", Protocol::kSip});
  t.append(sip_request("INVITE", "s1", "a@x", "ta", "b@x", "", msec(10), ep(1, 5060), ep(2, 5060)));
  t.append(sip_request("BYE", "s1", "a@x", "ta", "b@x", "tb", msec(50), ep(1, 5060), ep(2, 5060)));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.first_time(), msec(10));
  EXPECT_EQ(t.last_time(), msec(50));
  EXPECT_EQ(t.back().sip()->method, "BYE");
  EXPECT_EQ(t.key().to_string(), "s1/sip");
}

TEST(Trail, BoundedEviction) {
  Trail t(TrailKey{"s1", Protocol::kRtp}, /*max_footprints=*/10);
  for (int i = 0; i < 25; ++i) {
    t.append(rtp_packet(static_cast<uint16_t>(i), 1, msec(i), ep(1, 16384), ep(2, 16384)));
  }
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.total_appended(), 25u);
  EXPECT_EQ(t.evicted(), 15u);
  // Oldest surviving footprint is #15.
  EXPECT_EQ(t.front().rtp()->sequence, 15);
  EXPECT_EQ(t.back().rtp()->sequence, 24);
  // Logical indexing stays oldest-first across the ring wrap.
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.at(i).rtp()->sequence, 15 + i);
  }
}

TEST(Trail, ArenaBackedRingGrowsInPlaceWithoutAbandoningBlocks) {
  // When the ring is its arena's newest allocation, growth must extend in
  // place: footprint addresses stay stable and the arena's allocated bytes
  // track exactly one ring extent, not a geometric-growth ladder of
  // abandoned blocks.
  Arena arena(64 * 1024);  // one chunk: growth never crosses a chunk boundary
  Trail* t = arena.create<Trail>(TrailKey{"s1", Protocol::kRtp}, /*max_footprints=*/4096,
                                 kInvalidSymbol, &arena);
  t->append(rtp_packet(0, 1, msec(0), ep(1, 16384), ep(2, 16384)));
  const Footprint* first = &t->at(0);
  for (uint16_t i = 1; i < 512; ++i) {
    t->append(rtp_packet(i, 1, msec(i), ep(1, 16384), ep(2, 16384)));
  }
  // In-place extension never moved the slot array.
  EXPECT_EQ(&t->at(0), first);
  for (size_t i = 0; i < t->size(); ++i) {
    EXPECT_EQ(t->at(i).rtp()->sequence, i);
  }
  // Bytes handed out ≈ Trail object + one 512-slot extent (power-of-two
  // growth), not the ~2x an allocate-move-abandon ladder would leave.
  EXPECT_LT(arena.bytes_allocated(), sizeof(Trail) + 600 * sizeof(Footprint));
  t->~Trail();
}

TEST(Trail, ArenaBackedRingSurvivesInterleavedAllocations) {
  // Another allocation on top of the ring defeats try_extend; growth must
  // fall back to allocate-and-move and keep every footprint intact.
  Arena arena(256);
  Trail* t = arena.create<Trail>(TrailKey{"s1", Protocol::kRtp}, /*max_footprints=*/4096,
                                 kInvalidSymbol, &arena);
  for (uint16_t i = 0; i < 200; ++i) {
    t->append(rtp_packet(i, 1, msec(i), ep(1, 16384), ep(2, 16384)));
    if (i % 7 == 0) arena.allocate(24, 8);  // clutter between growths
  }
  ASSERT_EQ(t->size(), 200u);
  for (size_t i = 0; i < t->size(); ++i) {
    EXPECT_EQ(t->at(i).rtp()->sequence, i);
  }
  t->~Trail();
}

TEST(Trail, HeapBackedRingGrowsAndFrees) {
  // No arena: the ring draws from the global heap (direct-construction and
  // test usage), grows by relocation, and the destructor releases it.
  Trail t(TrailKey{"s1", Protocol::kRtp}, /*max_footprints=*/64);
  for (uint16_t i = 0; i < 150; ++i) {
    t.append(rtp_packet(i, 1, msec(i), ep(1, 16384), ep(2, 16384)));
  }
  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(t.evicted(), 150u - 64u);
  EXPECT_EQ(t.front().rtp()->sequence, 150 - 64);
  EXPECT_EQ(t.back().rtp()->sequence, 149);
}

TEST(Trail, ScanNewestFirst) {
  Trail t(TrailKey{"s1", Protocol::kSip});
  for (int i = 0; i < 5; ++i) {
    t.append(sip_request(i == 2 ? "BYE" : "INFO", "s1", "a@x", "ta", "b@x", "tb", msec(i),
                         ep(1, 5060), ep(2, 5060)));
  }
  int visited = 0;
  bool found = t.scan_newest_first([&](const Footprint& fp) {
    ++visited;
    return fp.sip()->method == "BYE";
  });
  EXPECT_TRUE(found);
  EXPECT_EQ(visited, 3);  // newest-first: INFO(4), INFO(3), BYE(2)
}

TEST(TrailManager, SipKeysByCallId) {
  TrailManager tm;
  tm.add(sip_request("INVITE", "call-A", "a@x", "ta", "b@x", "", 0, ep(1, 5060), ep(2, 5060)));
  tm.add(sip_request("INVITE", "call-B", "c@x", "tc", "d@x", "", 0, ep(3, 5060), ep(4, 5060)));
  tm.add(sip_request("BYE", "call-A", "a@x", "ta", "b@x", "tb", 0, ep(1, 5060), ep(2, 5060)));
  EXPECT_EQ(tm.trail_count(), 2u);
  ASSERT_NE(tm.find("call-A", Protocol::kSip), nullptr);
  EXPECT_EQ(tm.find("call-A", Protocol::kSip)->size(), 2u);
  EXPECT_EQ(tm.find("call-B", Protocol::kSip)->size(), 1u);
  EXPECT_EQ(tm.stats().sessions_created, 2u);
}

TEST(TrailManager, RtpBindsViaMediaEndpoint) {
  TrailManager tm;
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  tm.add(rtp_packet(1, 7, 0, ep(2, 16384), ep(1, 16384)));  // src matches
  tm.add(rtp_packet(2, 7, 0, ep(1, 16384), ep(2, 16384)));  // dst matches
  const Trail* t = tm.find("call-A", Protocol::kRtp);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->size(), 2u);
  EXPECT_EQ(tm.stats().rtp_bound_to_session, 2u);
  EXPECT_EQ(tm.stats().rtp_unbound, 0u);
}

TEST(TrailManager, UnboundRtpGetsFlowSession) {
  TrailManager tm;
  tm.add(rtp_packet(1, 7, 0, ep(9, 30000), ep(1, 16384)));
  EXPECT_EQ(tm.stats().rtp_unbound, 1u);
  auto sessions = tm.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].rfind("flow:", 0), 0u);
}

TEST(TrailManager, RtcpNormalizesToRtpPort) {
  TrailManager tm;
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  Footprint fp;
  fp.protocol = Protocol::kRtcp;
  fp.time = 0;
  fp.src = ep(2, 16385);  // RTCP = RTP port + 1
  fp.dst = ep(1, 16385);
  fp.data = RtcpFootprint{.is_bye = true, .ssrc = 1};
  tm.add(std::move(fp));
  EXPECT_NE(tm.find("call-A", Protocol::kRtcp), nullptr);
}

TEST(TrailManager, SessionTrailsSpanProtocols) {
  TrailManager tm;
  tm.bind_media_endpoint(ep(1, 16384), "call-A");
  tm.add(sip_request("INVITE", "call-A", "a@x", "ta", "b@x", "", 0, ep(1, 5060), ep(2, 5060)));
  tm.add(rtp_packet(1, 7, 0, ep(1, 16384), ep(2, 16384)));
  tm.add(acc_start("call-A", "a@x", "b@x", 0, ep(100, 9010), ep(200, 9009)));
  auto trails = tm.session_trails("call-A");
  EXPECT_EQ(trails.size(), 3u);  // the paper's SIP + RTP + Accounting trails
}

TEST(TrailManager, AccKeysByCallId) {
  TrailManager tm;
  tm.add(acc_start("call-X", "a@x", "b@x", 0, ep(100, 9010), ep(200, 9009)));
  EXPECT_NE(tm.find("call-X", Protocol::kAcc), nullptr);
}

TEST(TrailManager, ExpireIdleDropsOldTrails) {
  TrailManager tm;
  tm.add(sip_request("INVITE", "old", "a@x", "t", "b@x", "", msec(10), ep(1, 1), ep(2, 2)));
  tm.add(sip_request("INVITE", "new", "a@x", "t", "b@x", "", sec(100), ep(1, 1), ep(2, 2)));
  EXPECT_EQ(tm.expire_idle(sec(50)), 1u);
  EXPECT_EQ(tm.find("old", Protocol::kSip), nullptr);
  EXPECT_NE(tm.find("new", Protocol::kSip), nullptr);
}

TEST(TrailManager, UnbindMediaEndpoint) {
  TrailManager tm;
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  EXPECT_TRUE(tm.session_for_media(ep(2, 16384)).has_value());
  tm.unbind_media_endpoint(ep(2, 16384));
  EXPECT_FALSE(tm.session_for_media(ep(2, 16384)).has_value());
}

TEST(TrailManager, RebindingDropsOnlyRoutesThroughTheEndpoint) {
  TrailManager tm;
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  tm.bind_media_endpoint(ep(4, 16384), "call-B");
  tm.add(rtp_packet(1, 7, 0, ep(1, 16384), ep(2, 16384)));
  tm.add(rtp_packet(1, 8, 0, ep(3, 16384), ep(4, 16384)));
  EXPECT_EQ(tm.stats().flow_cache_hits, 0u);

  // Re-signaling an unchanged binding, and a new call's SDP naming a fresh
  // endpoint: both cached routes survive.
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  tm.bind_media_endpoint(ep(5, 16384), "call-C");
  ASSERT_NE(tm.find_flow(ep(1, 16384), ep(2, 16384), Protocol::kRtp), nullptr);
  ASSERT_NE(tm.find_flow(ep(3, 16384), ep(4, 16384), Protocol::kRtp), nullptr);
  tm.add(rtp_packet(2, 7, msec(20), ep(1, 16384), ep(2, 16384)));
  tm.add(rtp_packet(2, 8, msec(20), ep(3, 16384), ep(4, 16384)));
  EXPECT_EQ(tm.stats().flow_cache_hits, 2u);

  // Re-binding call-B's endpoint drops exactly the route through it.
  tm.bind_media_endpoint(ep(4, 16384), "call-D");
  EXPECT_NE(tm.find_flow(ep(1, 16384), ep(2, 16384), Protocol::kRtp), nullptr);
  EXPECT_EQ(tm.find_flow(ep(3, 16384), ep(4, 16384), Protocol::kRtp), nullptr);
  tm.add(rtp_packet(3, 7, msec(40), ep(1, 16384), ep(2, 16384)));
  Trail& moved = tm.add(rtp_packet(3, 8, msec(40), ep(3, 16384), ep(4, 16384)));
  EXPECT_EQ(tm.stats().flow_cache_hits, 3u);
  EXPECT_EQ(moved.key().session, "call-D");

  // The re-classified flow is cached again, now into the new session.
  const MediaFlow* flow = tm.find_flow(ep(3, 16384), ep(4, 16384), Protocol::kRtp);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->trail, &moved);
  tm.add(rtp_packet(4, 8, msec(60), ep(3, 16384), ep(4, 16384)));
  EXPECT_EQ(tm.stats().flow_cache_hits, 4u);
}

TEST(TrailManager, RebindingReachesRtcpRoutesOnTheOddPort) {
  TrailManager tm;
  auto rtcp = [] {
    Footprint fp;
    fp.protocol = Protocol::kRtcp;
    fp.src = ep(2, 16385);
    fp.dst = ep(1, 16385);
    fp.data = RtcpFootprint{.is_bye = false, .ssrc = 1};
    return fp;
  };
  EXPECT_EQ(tm.add(rtcp()).key().session.rfind("flow:", 0), 0u);
  // The binding names the even RTP port; the cached RTCP route looked it up.
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  EXPECT_EQ(tm.add(rtcp()).key().session, "call-A");
}

TEST(TrailManager, MigrationDropsOnlyTheMovedRecordsRoutes) {
  // Extracting a session drops the cached routes into its trails and no
  // others: another call's flow stays cached and its next packet is a hit.
  TrailManager tm;
  tm.add(sip_request("INVITE", "call-A", "a@x", "ta", "b@x", "", 0, ep(1, 5060), ep(2, 5060)));
  tm.add(sip_request("INVITE", "call-B", "c@x", "tc", "d@x", "", 0, ep(3, 5060), ep(4, 5060)));
  tm.bind_media_endpoint(ep(2, 16384), "call-A");
  tm.bind_media_endpoint(ep(4, 16384), "call-B");
  tm.add(rtp_packet(1, 7, 0, ep(1, 16384), ep(2, 16384)));
  tm.add(rtp_packet(1, 8, 0, ep(3, 16384), ep(4, 16384)));
  TrailManager::ExtractedSession moved = tm.extract_session("call-A");
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(tm.find_flow(ep(1, 16384), ep(2, 16384), Protocol::kRtp), nullptr)
      << "cached routes into the departed trails are gone";
  EXPECT_FALSE(tm.session_for_media(ep(2, 16384)).has_value()) << "its binding left with it";
  EXPECT_NE(tm.find_flow(ep(3, 16384), ep(4, 16384), Protocol::kRtp), nullptr);
  EXPECT_EQ(tm.add(rtp_packet(2, 8, msec(20), ep(3, 16384), ep(4, 16384))).key().session,
            "call-B");
  EXPECT_EQ(tm.stats().flow_cache_hits, 1u);
  // The moved record's endpoint, with no binding here any more, classifies
  // as a flow of its own.
  EXPECT_EQ(tm.add(rtp_packet(2, 7, msec(20), ep(1, 16384), ep(2, 16384))).key().session.rfind(
                "flow:", 0),
            0u);
}

TEST(TrailManager, InternsSessionSymbolsOnce) {
  TrailManager tm;
  tm.add(sip_request("INVITE", "call-A", "a@x", "t", "b@x", "", 0, ep(1, 1), ep(2, 2)));
  tm.add(sip_request("BYE", "call-A", "a@x", "t", "b@x", "tb", 0, ep(1, 1), ep(2, 2)));
  const Trail* t = tm.find("call-A", Protocol::kSip);
  ASSERT_NE(t, nullptr);
  EXPECT_NE(t->sym(), kInvalidSymbol);
  EXPECT_EQ(tm.symbols().name(t->sym()), "call-A");
  // One distinct id routed twice: exactly one interned symbol.
  EXPECT_EQ(tm.symbols().size(), 1u);
}

TEST(TrailManager, PrincipalRecordHoldsRuleSlotsAndLocations) {
  // One record per AOR, whatever the session: one rule-state block with an
  // area per principal-keyed rule, and registered locations. A new ruleset
  // frees the blocks and keeps the locations; a record holding neither
  // goes.
  auto int64_state = [](StateKey key) {
    RuleStateSpec spec;
    spec.key = key;
    spec.size = sizeof(int64_t);
    spec.align = alignof(int64_t);
    return spec;
  };
  const std::vector<RuleStateSpec> specs{int64_state(StateKey::kPrincipal),
                                         int64_state(StateKey::kSession),
                                         int64_state(StateKey::kPrincipal)};
  auto area = [](TrailManager& tm, std::string_view aor, size_t rule) {
    return static_cast<int64_t*>(tm.principal_slot(aor, rule));
  };
  TrailManager tm;
  EXPECT_EQ(tm.principal_slot("bob@lab.net", 0), nullptr) << "no layout, no state";
  tm.set_rule_layout(std::make_shared<const RuleStateLayout>(specs));
  EXPECT_EQ(tm.principal_slot("bob@lab.net", 1), nullptr) << "a session-keyed rule";
  EXPECT_FALSE(tm.has_principal("bob@lab.net"));
  *area(tm, "bob@lab.net", 2) = 7;
  EXPECT_EQ(*area(tm, "carol@lab.net", 0), 0) << "a new area starts zeroed";
  EXPECT_EQ(*area(tm, "bob@lab.net", 2), 7) << "built once, then kept";
  tm.commit_location("bob@lab.net", ep(5, 5060).addr, sec(1));
  tm.commit_location("bob@lab.net", ep(5, 5060).addr, sec(4));
  tm.commit_location("bob@lab.net", ep(7, 5060).addr, sec(2));
  EXPECT_EQ(tm.principals(), (std::vector<std::string>{"bob@lab.net", "carol@lab.net"}));
  EXPECT_EQ(tm.rule_state_counts(3), (std::vector<size_t>{1, 0, 1}));
  EXPECT_EQ(tm.rule_state_blocks(), 2u);
  EXPECT_EQ(tm.registered_locations("bob@lab.net").size(), 2u);
  EXPECT_EQ(tm.registered_at("bob@lab.net", ep(5, 5060).addr), sec(4));
  EXPECT_EQ(tm.registered_at("bob@lab.net", ep(9, 5060).addr), std::nullopt);
  EXPECT_TRUE(tm.registered_locations("carol@lab.net").empty());
  EXPECT_EQ(tm.session_count(), 0u) << "principals are not sessions";

  tm.clear_rule_states();
  EXPECT_EQ(tm.principals(), (std::vector<std::string>{"bob@lab.net"}));
  EXPECT_EQ(tm.rule_state_counts(3), (std::vector<size_t>{0, 0, 0}));
  EXPECT_EQ(tm.rule_state_blocks(), 0u);
  EXPECT_EQ(tm.registered_at("bob@lab.net", ep(7, 5060).addr), sec(2));

  // Handoff moves the whole record, its block included.
  *area(tm, "bob@lab.net", 0) = 9;
  TrailManager adopter;
  adopter.set_rule_layout(std::make_shared<const RuleStateLayout>(specs));
  adopter.install_principal(tm.extract_principal("bob@lab.net"));
  EXPECT_FALSE(tm.has_principal("bob@lab.net"));
  EXPECT_FALSE(tm.extract_principal("bob@lab.net").valid());
  EXPECT_TRUE(adopter.has_principal("bob@lab.net"));
  EXPECT_EQ(adopter.rule_state_counts(3), (std::vector<size_t>{1, 0, 0}));
  EXPECT_EQ(*area(adopter, "bob@lab.net", 0), 9);
  EXPECT_EQ(adopter.registered_at("bob@lab.net", ep(5, 5060).addr), sec(4));
}

TEST(TrailManager, SessionArenaReleasedOnLastTrailExpiry) {
  // All of a session's trails share one arena; expiring them all releases
  // the session slot (O(1) in footprint count), and the session id can be
  // re-created afterwards with fresh storage.
  TrailManager tm(/*max_footprints_per_trail=*/64);
  for (int i = 0; i < 500; ++i) {
    tm.add(sip_request("INFO", "call-A", "a@x", "t", "b@x", "tb", msec(i), ep(1, 1), ep(2, 2)));
    tm.add(rtp_packet(static_cast<uint16_t>(i), 1, msec(i), ep(3, 16384), ep(4, 16384)));
  }
  EXPECT_EQ(tm.session_count(), 2u);  // call-A + the synthetic flow session
  EXPECT_GT(tm.arena_bytes_reserved(), 0u);
  EXPECT_EQ(tm.expire_idle(sec(10)), 2u);  // call-A's sip trail + the flow's rtp trail
  EXPECT_EQ(tm.session_count(), 0u);
  EXPECT_EQ(tm.trail_count(), 0u);
  EXPECT_EQ(tm.arena_bytes_reserved(), 0u);
  // Recreate: same string re-uses its interned symbol, fresh arena.
  tm.add(sip_request("INVITE", "call-A", "a@x", "t", "b@x", "", sec(20), ep(1, 1), ep(2, 2)));
  ASSERT_NE(tm.find("call-A", Protocol::kSip), nullptr);
  EXPECT_EQ(tm.find("call-A", Protocol::kSip)->size(), 1u);
  EXPECT_EQ(tm.stats().sessions_created, 3u);  // call-A, flow, call-A again
}

TEST(TrailManager, ExpiryKeepsARecordWithALiveTrailWhole) {
  // Only some of a session's trails went idle: the record is not idle, so
  // it stays whole — every trail readable, its binding kept.
  TrailManager tm;
  tm.add(sip_request("INVITE", "call-A", "a@x", "t", "b@x", "", msec(10), ep(1, 1), ep(2, 2)));
  tm.bind_media_endpoint(ep(4, 16384), "call-A");
  tm.add(rtp_packet(1, 1, sec(100), ep(3, 16384), ep(4, 16384)));
  ASSERT_EQ(tm.session_count(), 1u);
  EXPECT_EQ(tm.expire_idle(sec(50)), 0u);
  EXPECT_EQ(tm.session_count(), 1u);
  ASSERT_NE(tm.find("call-A", Protocol::kSip), nullptr);
  EXPECT_EQ(tm.find("call-A", Protocol::kSip)->size(), 1u);
  const Trail* rtp = tm.find("call-A", Protocol::kRtp);
  ASSERT_NE(rtp, nullptr);
  EXPECT_EQ(rtp->size(), 1u);
  EXPECT_EQ(tm.session_for_media(ep(4, 16384)), "call-A");
  // Once the newest trail is idle too, the record goes whole.
  EXPECT_EQ(tm.expire_idle(sec(101)), 1u);
  EXPECT_EQ(tm.session_count(), 0u);
  EXPECT_EQ(tm.trail_count(), 0u);
  EXPECT_FALSE(tm.session_for_media(ep(4, 16384)).has_value());
}

TEST(TrailManager, SessionChurnStress) {
  // Thousands of sessions created, filled and expired in waves: exercises
  // flat-map growth/backward-shift and arena recycling together. Survivor
  // correctness is checked against the expected wave membership.
  TrailManager tm(/*max_footprints_per_trail=*/16);
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 1000; ++i) {
      std::string id = "wave-" + std::to_string(wave) + "-call-" + std::to_string(i);
      tm.add(sip_request("INVITE", id, "a@x", "t", "b@x", "", sec(wave * 100 + 1),
                         ep(1, 1), ep(2, 2)));
    }
    // Expire everything older than this wave.
    tm.expire_idle(sec(wave * 100));
    EXPECT_EQ(tm.session_count(), 1000u) << "wave " << wave;
  }
  // Spot-check: only the last wave survives.
  EXPECT_EQ(tm.find("wave-0-call-0", Protocol::kSip), nullptr);
  EXPECT_NE(tm.find("wave-9-call-999", Protocol::kSip), nullptr);
  EXPECT_EQ(tm.stats().sessions_created, 10000u);
  EXPECT_EQ(tm.sessions_retired(), 9000u);
  // The interner is append-only by design; every distinct id stays interned.
  EXPECT_EQ(tm.symbols().size(), 10000u);
}

}  // namespace
}  // namespace scidive::core
