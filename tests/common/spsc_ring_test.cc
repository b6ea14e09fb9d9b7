#include "common/spsc_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

// SpscRing unit tests. The suite keeps the ring's former name, MpscQueue,
// so these tests keep their recorded ids.
namespace scidive {
namespace {

// The producer and consumer indices each own a cache line.
static_assert(alignof(SpscRing<int>) >= kCacheLineSize);
static_assert(sizeof(SpscRing<int>) >= 3 * kCacheLineSize,
              "head and tail must sit on separate lines after the slot pointer");

/// Fill callback that writes `value` into the claimed slot.
template <typename T>
auto put(T value) {
  return [value = std::move(value)](T& slot) mutable { slot = std::move(value); };
}

/// Consume up to `max` elements, appending copies to `out`.
template <typename T>
size_t take(SpscRing<T>& q, std::vector<T>& out, size_t max) {
  return q.consume_batch(max, [&out](T& v, const T*) { out.push_back(v); });
}

TEST(MpscQueue, PushPopOrdering) {
  SpscRing<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push_with(put(i)));
  EXPECT_EQ(q.size(), 5u);
  std::vector<int> got;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(take(q, got, 1), 1u);
    EXPECT_EQ(got.back(), i);
  }
  EXPECT_EQ(take(q, got, 1), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  SpscRing<int> q2(0);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(MpscQueue, FullRingRejectsAndKeepsValue) {
  SpscRing<std::string> q(2);
  EXPECT_TRUE(q.try_push_with(put<std::string>("a")));
  EXPECT_TRUE(q.try_push_with(put<std::string>("b")));
  std::string keep = "survivor";
  bool filled = false;
  const auto fill = [&](std::string& slot) {
    filled = true;
    slot = std::move(keep);
  };
  EXPECT_FALSE(q.try_push_with(fill));
  // A failed push must not run the fill: the caller retries with its value.
  EXPECT_FALSE(filled);
  EXPECT_EQ(keep, "survivor");
  std::vector<std::string> out;
  ASSERT_EQ(take(q, out, 1), 1u);
  EXPECT_EQ(out.back(), "a");
  EXPECT_TRUE(q.try_push_with(fill));
  EXPECT_TRUE(filled);
}

TEST(MpscQueue, WraparoundManyTimes) {
  SpscRing<uint32_t> q(4);
  uint32_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (q.try_push_with(put(next_in))) ++next_in;
    std::vector<uint32_t> got;
    while (take(q, got, 1) == 1) {
      ASSERT_EQ(got.back(), next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_in, 1000u);
}

TEST(MpscQueue, PopBatchDrainsUpToLimit) {
  SpscRing<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push_with(put(i)));
  std::vector<int> got;
  size_t n = take(q, got, 4);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  n = take(q, got, 100);
  EXPECT_EQ(n, 6u);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(take(q, got, 8), 0u);
}

TEST(MpscQueue, MoveOnlyElements) {
  SpscRing<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.try_push_with([](std::unique_ptr<int>& slot) { slot = std::make_unique<int>(42); }));
  std::unique_ptr<int> out;
  ASSERT_EQ(q.consume_batch(1, [&out](std::unique_ptr<int>& v, const std::unique_ptr<int>*) {
              out = std::move(v);
            }),
            1u);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(MpscQueue, SlotBufferSurvivesLaps) {
  // What the sharded engine's copy-free ingest rests on: a value consumed in
  // place stays in its slot, so when a producer claims the slot again a lap
  // later the buffer it grew is still there and refilling it with data that
  // fits does not reallocate.
  SpscRing<std::vector<uint8_t>> q(2);
  const std::vector<uint8_t> datagram(1500, 0xab);
  std::vector<size_t> capacity_at_claim;
  std::vector<const uint8_t*> buffer_at_claim, buffer_consumed;
  const auto fill = [&](std::vector<uint8_t>& slot) {
    capacity_at_claim.push_back(slot.capacity());
    buffer_at_claim.push_back(slot.data());
    slot.assign(datagram.begin(), datagram.end());
  };
  for (int lap = 0; lap < 3; ++lap) {
    for (size_t i = 0; i < q.capacity(); ++i) ASSERT_TRUE(q.try_push_with(fill));
    const size_t n = q.consume_batch(q.capacity(), [&](std::vector<uint8_t>& v, const auto*) {
      EXPECT_EQ(v, datagram);
      buffer_consumed.push_back(v.data());
    });
    ASSERT_EQ(n, q.capacity());
  }
  ASSERT_EQ(capacity_at_claim.size(), 3 * q.capacity());
  for (size_t i = q.capacity(); i < capacity_at_claim.size(); ++i) {
    EXPECT_GE(capacity_at_claim[i], datagram.size()) << "claim " << i;
    EXPECT_EQ(buffer_at_claim[i], buffer_consumed[i - q.capacity()]) << "claim " << i;
  }
}

TEST(MpscQueue, OneProducerOneConsumerKeepsOrderAndLosesNothing) {
  // The contract the sharded engine and the UDP source depend on: one
  // producer thread racing one consumer thread through a tiny ring loses
  // nothing, duplicates nothing, and pops in push order. The ring wraps
  // thousands of times, so both sides keep meeting on the same slots.
  constexpr uint64_t kCount = 100'000;
  SpscRing<uint64_t> q(64);

  std::thread producer([&q] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!q.try_push_with(put(i))) std::this_thread::yield();
    }
  });

  uint64_t next_expected = 0;
  bool order_ok = true;
  std::vector<uint64_t> batch;
  batch.reserve(256);
  while (next_expected < kCount) {
    batch.clear();
    if (take(q, batch, 256) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (uint64_t v : batch) {
      if (v != next_expected) order_ok = false;
      ++next_expected;
    }
  }
  producer.join();

  EXPECT_TRUE(order_ok);
  EXPECT_EQ(next_expected, kCount);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace scidive
