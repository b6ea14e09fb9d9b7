#include "common/change_log.h"

#include <gtest/gtest.h>

#include <vector>

namespace scidive {
namespace {

std::vector<int> since(const ChangeLog<int, 4>& log, uint64_t generation, bool* exact) {
  std::vector<int> out;
  *exact = log.for_each_since(generation, [&](int key) { out.push_back(key); });
  return out;
}

TEST(ChangeLog, ReplaysKeysRecordedAfterAGeneration) {
  ChangeLog<int, 4> log;
  bool exact = false;
  EXPECT_TRUE(since(log, 0, &exact).empty());
  EXPECT_TRUE(exact);

  log.record(10);
  const uint64_t g = log.generation();
  log.record(11);
  log.record(12);
  EXPECT_EQ(log.generation(), 3u);
  EXPECT_EQ(since(log, 0, &exact), (std::vector<int>{10, 11, 12}));
  EXPECT_TRUE(exact);
  EXPECT_EQ(since(log, g, &exact), (std::vector<int>{11, 12}));
  EXPECT_TRUE(exact);
  EXPECT_TRUE(since(log, log.generation(), &exact).empty());
  EXPECT_TRUE(exact);
}

TEST(ChangeLog, RefusesWhenChangesOutgrowTheWindow) {
  ChangeLog<int, 4> log;
  for (int key = 1; key <= 5; ++key) log.record(key);
  bool exact = true;
  EXPECT_TRUE(since(log, 0, &exact).empty());
  EXPECT_FALSE(exact) << "five changes cannot be replayed from a window of four";
  EXPECT_EQ(since(log, 1, &exact), (std::vector<int>{2, 3, 4, 5}));
  EXPECT_TRUE(exact);
}

TEST(ChangeLog, ResetForcesConsumersBehindItToDropEverything) {
  ChangeLog<int, 4> log;
  log.record(1);
  const uint64_t before_reset = log.generation();
  log.record_reset();
  const uint64_t at_reset = log.generation();
  log.record(2);
  bool exact = true;
  EXPECT_TRUE(since(log, before_reset, &exact).empty());
  EXPECT_FALSE(exact);
  EXPECT_EQ(since(log, at_reset, &exact), (std::vector<int>{2}));
  EXPECT_TRUE(exact) << "a consumer that caught up past the reset replays key by key";
}

}  // namespace
}  // namespace scidive
