// MetricsRegistry / MetricSlot behavior: the fixed catalog's metadata, hot
// path recording into per-shard slots, scrape-time merging, build-info
// pairs, and the optional ScrapeSampler thread.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/sampler.h"

namespace itrim::obs {
namespace {

TEST(MetricsCatalogTest, EveryMetricHasDistinctNonEmptyMetadata) {
  std::vector<std::string> names;
  for (int c = 0; c < kNumCounters; ++c) {
    const CounterInfo& info = MetaOf(static_cast<Counter>(c));
    ASSERT_NE(info.name, nullptr);
    ASSERT_NE(info.help, nullptr);
    EXPECT_GT(std::strlen(info.name), 0u);
    EXPECT_GT(std::strlen(info.help), 0u);
    names.push_back(info.name);
  }
  for (int g = 0; g < kNumGauges; ++g) {
    const GaugeInfo& info = MetaOf(static_cast<Gauge>(g));
    EXPECT_GT(std::strlen(info.name), 0u);
    names.push_back(info.name);
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    const HistogramInfo& info = MetaOf(static_cast<Histogram>(h));
    EXPECT_GT(std::strlen(info.name), 0u);
    names.push_back(info.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "metric names must be unique across kinds";
}

TEST(MetricsCatalogTest, HistogramBoundsAreAscendingAndFitTheSlot) {
  for (int h = 0; h < kNumHistograms; ++h) {
    const HistogramInfo& info = MetaOf(static_cast<Histogram>(h));
    ASSERT_GT(info.bounds.size(), 0u) << info.name;
    ASSERT_LE(info.bounds.size(), static_cast<size_t>(kMaxBuckets))
        << info.name;
    for (size_t i = 1; i < info.bounds.size(); ++i) {
      EXPECT_LT(info.bounds[i - 1], info.bounds[i]) << info.name;
    }
  }
}

TEST(MetricsRegistryTest, SlotsRecordAndScrapeMerges) {
  MetricsRegistry registry;
  MetricSlot* a = registry.AddSlot("shard0");
  MetricSlot* b = registry.AddSlot("shard1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(registry.num_slots(), 2u);

  a->Inc(Counter::kIngestEventsAccepted);
  a->Inc(Counter::kIngestEventsAccepted, 4);
  b->Inc(Counter::kIngestEventsAccepted, 2);
  a->Set(Gauge::kIngestQueueDepth, 3.0);
  b->Set(Gauge::kIngestQueueDepth, 5.0);

  MetricsSnapshot snap = registry.Scrape();
  ASSERT_EQ(snap.slots.size(), 2u);
  EXPECT_EQ(snap.slots[0].label, "shard0");
  EXPECT_EQ(snap.slots[1].label, "shard1");

  const int c = static_cast<int>(Counter::kIngestEventsAccepted);
  const int g = static_cast<int>(Gauge::kIngestQueueDepth);
  EXPECT_EQ(snap.slots[0].counters[c], 5u);
  EXPECT_EQ(snap.slots[1].counters[c], 2u);
  EXPECT_EQ(snap.merged.counters[c], 7u);
  EXPECT_EQ(snap.slots[0].gauges[g], 3.0);
  EXPECT_EQ(snap.merged.gauges[g], 8.0);  // gauges sum across slots
  EXPECT_EQ(a->Get(Counter::kIngestEventsAccepted), 5u);
  EXPECT_EQ(b->Get(Gauge::kIngestQueueDepth), 5.0);
}

TEST(MetricsRegistryTest, HistogramObservationsLandInTheRightBucket) {
  MetricsRegistry registry;
  MetricSlot* slot = registry.AddSlot("w");
  // kIngestPopBatchSize bounds: 1, 2, 4, 8, ... 512 (powers of two).
  const HistogramInfo& info = MetaOf(Histogram::kIngestPopBatchSize);
  slot->Observe(Histogram::kIngestPopBatchSize, 1.0);    // <= 1: bucket 0
  slot->Observe(Histogram::kIngestPopBatchSize, 3.0);    // <= 4: bucket 2
  slot->Observe(Histogram::kIngestPopBatchSize, 1e6);    // +Inf overflow

  MetricsSnapshot snap = registry.Scrape();
  const HistogramValue& merged =
      snap.merged.histograms[static_cast<int>(Histogram::kIngestPopBatchSize)];
  ASSERT_EQ(merged.counts.size(), info.bounds.size() + 1);
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.sum, 1.0 + 3.0 + 1e6);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[2], 1u);
  EXPECT_EQ(merged.counts[info.bounds.size()], 1u);  // overflow bucket
  uint64_t total = 0;
  for (uint64_t n : merged.counts) total += n;
  EXPECT_EQ(total, merged.count);
}

TEST(MetricsRegistryTest, InfoPairsMergeLastWriteWins) {
  MetricsRegistry registry;
  registry.SetInfo("kernel", "generic");
  registry.SetInfo("board", "flat");
  registry.SetInfo("kernel", "vector");  // overwrites
  MetricsSnapshot snap = registry.Scrape();
  ASSERT_EQ(snap.info.size(), 2u);
  bool saw_kernel = false;
  for (const auto& [key, value] : snap.info) {
    if (key == "kernel") {
      saw_kernel = true;
      EXPECT_EQ(value, "vector");
    }
  }
  EXPECT_TRUE(saw_kernel);
}

TEST(MetricsRegistryTest, ScrapeIsSafeWhileWritersRecord) {
  MetricsRegistry registry;
  MetricSlot* slot = registry.AddSlot("hot");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      slot->Inc(Counter::kSessionRoundsPlayed);
      slot->Observe(Histogram::kPoolTaskUs, 2.0);
    }
  });
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = registry.Scrape();
    const HistogramValue& h =
        snap.merged.histograms[static_cast<int>(Histogram::kPoolTaskUs)];
    uint64_t total = 0;
    for (uint64_t n : h.counts) total += n;
    // `count` must never run ahead of the bucket sum it is exported next
    // to (the Prometheus +Inf line), however a scrape interleaves with
    // concurrent Observe() calls.
    EXPECT_GE(total, h.count);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  MetricsSnapshot snap = registry.Scrape();
  EXPECT_EQ(
      snap.merged.counters[static_cast<int>(Counter::kSessionRoundsPlayed)],
      slot->Get(Counter::kSessionRoundsPlayed));
}

TEST(ScrapeSamplerTest, ValidatesItsInputsAndLifecycle) {
  MetricsRegistry registry;
  ScrapeSampler null_registry(nullptr, std::chrono::milliseconds(10),
                              [](const MetricsSnapshot&) {});
  EXPECT_EQ(null_registry.Start().code(), StatusCode::kInvalidArgument);
  ScrapeSampler null_callback(&registry, std::chrono::milliseconds(10),
                              nullptr);
  EXPECT_EQ(null_callback.Start().code(), StatusCode::kInvalidArgument);

  std::atomic<uint64_t> seen{0};
  ScrapeSampler sampler(&registry, std::chrono::milliseconds(5),
                        [&](const MetricsSnapshot&) { ++seen; });
  EXPECT_FALSE(sampler.running());
  ASSERT_TRUE(sampler.Start().ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_EQ(sampler.Start().code(), StatusCode::kFailedPrecondition);
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  // Stop takes a final flush sample, so at least one snapshot was seen.
  EXPECT_GE(sampler.samples(), 1u);
  EXPECT_EQ(seen.load(), sampler.samples());
  sampler.Stop();  // idempotent
}

TEST(ScrapeSamplerTest, ObservesConcurrentRecording) {
  MetricsRegistry registry;
  MetricSlot* slot = registry.AddSlot("w");
  std::atomic<uint64_t> last_seen{0};
  ScrapeSampler sampler(
      &registry, std::chrono::milliseconds(1),
      [&](const MetricsSnapshot& snap) {
        last_seen.store(snap.merged.counters[static_cast<int>(
                            Counter::kPoolTasksExecuted)],
                        std::memory_order_relaxed);
      });
  ASSERT_TRUE(sampler.Start().ok());
  for (int i = 0; i < 1000; ++i) slot->Inc(Counter::kPoolTasksExecuted);
  sampler.Stop();
  // The final flush sample runs after Stop is requested, so it sees
  // everything recorded before Stop() was called.
  EXPECT_EQ(last_seen.load(), 1000u);
}

TEST(MonotonicClockTest, NeverGoesBackwards) {
  int64_t prev = MonotonicNowNs();
  for (int i = 0; i < 1000; ++i) {
    int64_t now = MonotonicNowNs();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace itrim::obs
