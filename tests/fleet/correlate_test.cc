// FleetCorrelator and VouchStore in isolation: max() merge, exactly-once
// alerting by the key's owner, ownership churn, pruning, hostile remote
// keys, the dirty-window cost bound and vouch matching/eviction.
#include "fleet/correlate.h"

#include <gtest/gtest.h>

namespace scidive::fleet {
namespace {

const std::function<bool(std::string_view)> kOwner = [](std::string_view) { return true; };
const std::function<bool(std::string_view)> kNotOwner = [](std::string_view) { return false; };

core::Event register_from(pkt::Ipv4Address addr, SimTime time) {
  core::Event event{};
  event.type = core::EventType::kSipRegisterSeen;
  event.time = time;
  event.endpoint = {addr, 5060};
  return event;
}

const pkt::Ipv4Address kEve(10, 0, 0, 66);

/// `n` local REGISTERs from `addr` at `time`; returns the last partial.
LocalPartial feed(FleetCorrelator& c, pkt::Ipv4Address addr, SimTime time, int n) {
  LocalPartial last;
  for (int i = 0; i < n; ++i) last = c.on_local_event(register_from(addr, time)).value();
  return last;
}

SepCounter remote(const std::string& key, SimTime window_start, uint64_t count) {
  return SepCounter{CounterKind::kRegisterFlood, key, window_start, count};
}

TEST(FleetCorrelator, MaxMergeUnderDuplicateAndReorderedDelivery) {
  FleetCorrelator c("a");
  // Peer b's cumulative partials 5, 7 arrive as 7, 5, 7, 3: max() keeps 7.
  for (uint64_t count : {7, 5, 7, 3}) c.on_remote_counter("b", remote("10.0.0.66", 0, count));
  EXPECT_EQ(c.stats().partials_merged, 4u);
  feed(c, kEve, sec(1), 12);
  EXPECT_TRUE(c.evaluate(kOwner).empty()) << "7 + 12 is below 20";
  const LocalPartial last = feed(c, kEve, sec(2), 1);
  EXPECT_EQ(last.count, 13u) << "a local partial is this node's own count only";
  const SepCounter wire = FleetCorrelator::counter(last);
  EXPECT_EQ(wire, (SepCounter{CounterKind::kRegisterFlood, "10.0.0.66", 0, 13}));

  const auto alerts = c.evaluate(kOwner);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, kFleetRegisterFloodRule);
  EXPECT_EQ(alerts[0].session, "fleet:10.0.0.66@0");
  EXPECT_EQ(alerts[0].message,
            "20 REGISTERs from 10.0.0.66 across 2 node(s) within one window (threshold 20)");
}

TEST(FleetCorrelator, OneAlertPerKindKeyAndWindowAtTheThreshold) {
  FleetCorrelator c("a");
  feed(c, kEve, 0, 19);
  EXPECT_TRUE(c.evaluate(kOwner).empty());
  feed(c, kEve, 0, 1);
  EXPECT_EQ(c.evaluate(kOwner).size(), 1u);
  feed(c, kEve, 0, 30);
  EXPECT_TRUE(c.evaluate(kOwner).empty()) << "the window already alerted";
  c.on_remote_counter("b", remote("10.0.0.66", 0, 50));
  EXPECT_TRUE(c.evaluate(kOwner).empty());

  // The next window and another source each alert once more; alerts come
  // out in (kind, key text, window) order: "10.0.0.10" sorts before
  // "10.0.0.66" as text, although it is the smaller address.
  feed(c, kEve, sec(10), 20);
  feed(c, pkt::Ipv4Address(10, 0, 0, 10), sec(10), 20);
  const auto alerts = c.evaluate(kOwner);
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].session, "fleet:10.0.0.10@10000000");
  EXPECT_EQ(alerts[1].session, "fleet:10.0.0.66@10000000");
  EXPECT_EQ(c.stats().alerts_raised, 3u);
}

TEST(FleetCorrelator, NonOwnerNeverAlerts) {
  FleetCorrelator c("a");
  feed(c, kEve, 0, 100);
  c.on_remote_counter("b", remote("10.0.0.66", 0, 100));
  EXPECT_TRUE(c.evaluate(kNotOwner).empty());
  feed(c, kEve, 0, 1);
  EXPECT_TRUE(c.evaluate(kNotOwner).empty());
  EXPECT_EQ(c.stats().alerts_raised, 0u);
}

TEST(FleetCorrelator, NewOwnerAlertsExactlyOnceAfterOwnershipChange) {
  FleetCorrelator c("a");
  bool owner = false;
  const std::function<bool(std::string_view)> is_owner = [&](std::string_view) { return owner; };
  feed(c, kEve, 0, 25);
  EXPECT_TRUE(c.evaluate(is_owner).empty());

  // The ring moves the key here, but nothing about the window changed:
  // without the ownership notice the window is never looked at again.
  owner = true;
  EXPECT_TRUE(c.evaluate(is_owner).empty());
  c.ownership_changed();
  EXPECT_EQ(c.evaluate(is_owner).size(), 1u);
  c.ownership_changed();
  EXPECT_TRUE(c.evaluate(is_owner).empty()) << "already alerted: never twice";
  EXPECT_EQ(c.stats().alerts_raised, 1u);
}

TEST(FleetCorrelator, LatePartialForPrunedWindowIsIgnored) {
  FleetCorrelator c("a");  // 10 s windows, 8 retained
  feed(c, kEve, 0, 5);
  feed(c, kEve, sec(90), 1);  // horizon moves to 10 s: window 0 goes
  EXPECT_EQ(c.stats().windows_pruned, 1u);
  EXPECT_EQ(c.windows(), 1u);
  EXPECT_TRUE(c.evaluate(kOwner).empty());

  c.on_remote_counter("b", remote("10.0.0.66", 0, 100));
  EXPECT_EQ(c.windows(), 1u) << "a late partial must not re-create its window";
  const LocalPartial late = feed(c, kEve, sec(5), 1);
  EXPECT_EQ(late.count, 1u);
  EXPECT_EQ(c.windows(), 1u);
  EXPECT_TRUE(c.evaluate(kOwner).empty());
  EXPECT_EQ(c.stats().alerts_raised, 0u);
}

TEST(FleetCorrelator, PruningDropsOnlyWindowsBelowTheHorizon) {
  CorrelatorConfig config;
  config.retain_windows = 2;
  FleetCorrelator c("a", config);
  for (int w = 0; w < 5; ++w) feed(c, kEve, sec(10) * w, 1);
  // Latest window 40 s, horizon 20 s: windows 0 and 10 s are gone.
  EXPECT_EQ(c.stats().windows_pruned, 2u);
  EXPECT_EQ(c.windows(), 3u);
}

TEST(FleetCorrelator, NonIpv4RemoteKeyIsDroppedAndCounted) {
  FleetCorrelator c("a");
  for (const char* key : {"alice@lab.net", "10.0.0", "10.0.0.256", ""})
    c.on_remote_counter("b", remote(key, 0, 1000));
  EXPECT_EQ(c.stats().counters_dropped, 4u);
  EXPECT_EQ(c.stats().partials_merged, 0u);
  EXPECT_EQ(c.windows(), 0u);
  EXPECT_TRUE(c.evaluate(kOwner).empty());
}

TEST(FleetCorrelator, EvaluateVisitsOnlyChangedWindows) {
  FleetCorrelator c("a");
  for (uint32_t i = 0; i < 10000; ++i)
    c.on_local_event(register_from(pkt::Ipv4Address(0x0a000000u + i + 1), 0));
  EXPECT_EQ(c.windows(), 10000u);
  c.evaluate(kOwner);
  EXPECT_EQ(c.stats().windows_evaluated, 10000u);

  feed(c, kEve, 0, 1);
  c.on_remote_counter("b", remote("10.0.0.66", 0, 0));
  c.on_remote_counter("b", remote("10.0.0.66", 0, 0));  // rises nothing
  c.evaluate(kOwner);
  EXPECT_EQ(c.stats().windows_evaluated, 10001u);
  c.evaluate(kOwner);
  EXPECT_EQ(c.stats().windows_evaluated, 10001u) << "nothing changed, nothing visited";
}

TEST(VouchStore, MatchesOnBothSidesOfTheWindow) {
  VouchStore store(sec(1));
  store.add({VouchKind::kBye, "call-1", sec(10)});
  EXPECT_TRUE(store.vouched(VouchKind::kBye, "call-1", sec(10)));
  EXPECT_TRUE(store.vouched(VouchKind::kBye, "call-1", sec(9)));
  EXPECT_TRUE(store.vouched(VouchKind::kBye, "call-1", sec(11)));
  EXPECT_FALSE(store.vouched(VouchKind::kBye, "call-1", sec(9) - 1));
  EXPECT_FALSE(store.vouched(VouchKind::kBye, "call-1", sec(11) + 1));
  EXPECT_FALSE(store.vouched(VouchKind::kReinvite, "call-1", sec(10))) << "kind is part of the key";
  EXPECT_FALSE(store.vouched(VouchKind::kBye, "call-2", sec(10)));

  store.add({VouchKind::kBye, "call-1", sec(20)});
  EXPECT_TRUE(store.vouched(VouchKind::kBye, "call-1", sec(10)));
  EXPECT_TRUE(store.vouched(VouchKind::kBye, "call-1", sec(21)));
  EXPECT_FALSE(store.vouched(VouchKind::kBye, "call-1", sec(15)));
}

TEST(VouchStore, EvictsOldestFirstAtCapacity) {
  VouchStore store(sec(1), 3);
  store.add({VouchKind::kIm, "alice@lab.net", sec(1)});
  store.add({VouchKind::kIm, "bob@lab.net", sec(2)});
  store.add({VouchKind::kIm, "alice@lab.net", sec(3)});
  store.add({VouchKind::kIm, "carol@lab.net", sec(4)});  // evicts alice@1
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.vouched(VouchKind::kIm, "alice@lab.net", sec(1)));
  EXPECT_TRUE(store.vouched(VouchKind::kIm, "alice@lab.net", sec(3)));
  EXPECT_TRUE(store.vouched(VouchKind::kIm, "bob@lab.net", sec(2)));
  store.add({VouchKind::kIm, "dave@lab.net", sec(5)});  // evicts bob@2
  EXPECT_FALSE(store.vouched(VouchKind::kIm, "bob@lab.net", sec(2)));
  store.add({VouchKind::kIm, "erin@lab.net", sec(6)});  // evicts alice@3
  EXPECT_FALSE(store.vouched(VouchKind::kIm, "alice@lab.net", sec(3)));
  EXPECT_TRUE(store.vouched(VouchKind::kIm, "carol@lab.net", sec(4)));
  EXPECT_EQ(store.size(), 3u);
}

}  // namespace
}  // namespace scidive::fleet
