// TraceBuffer behavior: ordered single-writer windows, wraparound loss
// accounting, the capacity clamp, the packed kind/tenant metadata, and
// seqlock safety under a concurrent reader.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace itrim::obs {
namespace {

TEST(TraceKindTest, EveryKindHasAName) {
  for (int k = 0; k < static_cast<int>(TraceKind::kNumKinds); ++k) {
    const char* name = TraceKindName(static_cast<TraceKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
    // snake_case, usable as a stable JSON identifier.
    for (const char* p = name; *p != '\0'; ++p) {
      EXPECT_TRUE((*p >= 'a' && *p <= 'z') || *p == '_') << name;
    }
  }
}

TEST(TraceBufferTest, RecordsInOrderWithMonotonicTimestamps) {
  TraceBuffer trace(64);
  trace.Record(TraceKind::kRoundStart, 7, 1.0);
  trace.Record(TraceKind::kTrimDecision, 7, 12.0);
  trace.Record(TraceKind::kRoundEnd, 7, 0.93);

  std::vector<TraceEvent> events;
  trace.Snapshot(&events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceKind::kRoundStart);
  EXPECT_EQ(events[1].kind, TraceKind::kTrimDecision);
  EXPECT_EQ(events[2].kind, TraceKind::kRoundEnd);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
  for (const TraceEvent& ev : events) EXPECT_EQ(ev.tenant, 7u);
  EXPECT_EQ(events[1].value, 12.0);
  EXPECT_EQ(events[2].value, 0.93);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  EXPECT_EQ(trace.recorded(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceBufferTest, CapacityRoundsUpToAPowerOfTwo) {
  TraceBuffer trace(24);
  EXPECT_EQ(trace.capacity(), 32u);
  TraceBuffer tiny(0);
  EXPECT_GE(tiny.capacity(), 1u);
}

TEST(TraceBufferTest, HugeCapacitiesClampToTheMaximum) {
  // Rounding SIZE_MAX up to a power of two would overflow; the clamp keeps
  // the constructor finite and the allocation bounded.
  TraceBuffer huge(SIZE_MAX);
  EXPECT_EQ(huge.capacity(), kMaxTraceCapacity);
  TraceBuffer just_over(kMaxTraceCapacity + 1);
  EXPECT_EQ(just_over.capacity(), kMaxTraceCapacity);
  huge.Record(TraceKind::kRoundEnd, 3, 1.0);
  std::vector<TraceEvent> events;
  huge.Snapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tenant, 3u);
}

TEST(TraceBufferTest, WraparoundKeepsTheNewestWindowAndCountsDrops) {
  TraceBuffer trace(8);
  for (int i = 0; i < 20; ++i) {
    trace.Record(TraceKind::kRoundEnd, 1, static_cast<double>(i));
  }
  std::vector<TraceEvent> events;
  trace.Snapshot(&events);
  ASSERT_EQ(events.size(), trace.capacity());
  // The retained window is the newest `capacity` events, oldest first.
  EXPECT_EQ(events.front().value, 12.0);
  EXPECT_EQ(events.back().value, 19.0);
  EXPECT_EQ(trace.recorded(), 20u);
  EXPECT_EQ(trace.dropped(), 20u - trace.capacity());
}

TEST(TraceBufferTest, TenantIdsSurviveUpTo56Bits) {
  TraceBuffer trace(4);
  const uint64_t big = (uint64_t{1} << 56) - 1;
  trace.Record(TraceKind::kHibernate, big, 3.0);
  std::vector<TraceEvent> events;
  trace.Snapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tenant, big);
  EXPECT_EQ(events[0].kind, TraceKind::kHibernate);
}

TEST(TraceBufferTest, SnapshotRacesWritersWithoutTearing) {
  TraceBuffer trace(64);
  std::atomic<bool> stop{false};
  // Two writers hammer the ring (the multi-writer shape: a worker plus a
  // producer on the backpressure path) while this thread snapshots.
  auto writer = [&](uint64_t tenant) {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      trace.Record(TraceKind::kRoundEnd, tenant, static_cast<double>(i++));
    }
  };
  std::thread w1(writer, 1), w2(writer, 2);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 200; ++i) {
    trace.Snapshot(&events);
    for (const TraceEvent& ev : events) {
      // A torn read would surface as an impossible kind/tenant combo.
      EXPECT_EQ(ev.kind, TraceKind::kRoundEnd);
      EXPECT_TRUE(ev.tenant == 1u || ev.tenant == 2u);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  w1.join();
  w2.join();
}

}  // namespace
}  // namespace itrim::obs
