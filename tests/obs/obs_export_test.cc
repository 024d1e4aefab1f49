// Exporter contracts: Prometheus text exposition shape (the format
// tools/promlint.py lints in CI), BENCH-style metrics JSON, trace JSON and
// the text-file writer.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace itrim::obs {
namespace {

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  MetricSlot* a = registry.AddSlot("shard0");
  MetricSlot* b = registry.AddSlot("shard1");
  a->Inc(Counter::kIngestEventsAccepted, 5);
  b->Inc(Counter::kIngestEventsAccepted, 2);
  a->Set(Gauge::kIngestQueueDepth, 3.0);
  a->Observe(Histogram::kIngestPopBatchSize, 1.0);
  a->Observe(Histogram::kIngestPopBatchSize, 100.0);
  registry.SetInfo("kernel", "generic");
  registry.SetInfo("shards", "2");
  return registry.Scrape();
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PrometheusTextTest, EmitsWellFormedFamilies) {
  std::string text = PrometheusText(SampleSnapshot());

  // Counter family: HELP/TYPE headers, `_total` suffix, slot labels.
  EXPECT_TRUE(Contains(text, "# HELP itrim_ingest_events_accepted_total"));
  EXPECT_TRUE(
      Contains(text, "# TYPE itrim_ingest_events_accepted_total counter"));
  EXPECT_TRUE(Contains(
      text, "itrim_ingest_events_accepted_total{slot=\"shard0\"} 5"));
  EXPECT_TRUE(Contains(
      text, "itrim_ingest_events_accepted_total{slot=\"shard1\"} 2"));

  // Gauge family.
  EXPECT_TRUE(Contains(text, "# TYPE itrim_ingest_queue_depth gauge"));

  // Histogram family: cumulative buckets ending at +Inf, _sum and _count.
  EXPECT_TRUE(Contains(text, "# TYPE itrim_ingest_pop_batch_size histogram"));
  EXPECT_TRUE(Contains(text, "le=\"+Inf\""));
  EXPECT_TRUE(Contains(text, "itrim_ingest_pop_batch_size_sum"));
  EXPECT_TRUE(Contains(text, "itrim_ingest_pop_batch_size_count"));

  // Build identity.
  EXPECT_TRUE(Contains(text, "# TYPE itrim_build_info gauge"));
  EXPECT_TRUE(Contains(text, "kernel=\"generic\""));
  EXPECT_TRUE(Contains(text, "shards=\"2\""));

  // Exposition format basics: every non-comment line is `name{labels} value`
  // or `name value`, and the text ends with a newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_TRUE(line.rfind("itrim_", 0) == 0) << line;
  }
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulative) {
  std::string text = PrometheusText(SampleSnapshot());
  // Two observations on shard0 (1.0 and 100.0): the +Inf bucket of the
  // shard0 sample must read 2 (cumulative), not 1.
  const std::string needle =
      "itrim_ingest_pop_batch_size_bucket{slot=\"shard0\",le=\"+Inf\"} 2";
  EXPECT_TRUE(Contains(text, needle)) << text;
}

TEST(MetricsJsonTest, EmitsMergedAndPerSlotCases) {
  std::string json = MetricsJson(SampleSnapshot());
  EXPECT_TRUE(Contains(json, "\"schema_version\": 1"));
  EXPECT_TRUE(Contains(json, "\"kind\": \"obs_scrape\""));
  EXPECT_TRUE(Contains(json, "\"name\": \"merged\""));
  EXPECT_TRUE(Contains(json, "\"name\": \"slot/shard0\""));
  EXPECT_TRUE(Contains(json, "\"name\": \"slot/shard1\""));
  EXPECT_TRUE(Contains(json, "\"histograms\""));
  EXPECT_TRUE(Contains(json, "\"bounds\""));
  EXPECT_TRUE(Contains(json, "\"counts\""));
  EXPECT_TRUE(Contains(json, "\"kernel\": \"generic\""));
  EXPECT_TRUE(Contains(json, "\"ingest_events_accepted\": 7"));
}

TEST(TracesJsonTest, EmitsEventsWithKindNames) {
  std::vector<TraceEvent> events;
  TraceEvent ev;
  ev.seq = 4;
  ev.ts_ns = 123456789;
  ev.kind = TraceKind::kTrimDecision;
  ev.tenant = 9;
  ev.value = 17.0;
  events.push_back(ev);

  std::string json = TracesJson(events, /*dropped=*/3);
  EXPECT_TRUE(Contains(json, "\"kind\": \"obs_trace\""));
  EXPECT_TRUE(Contains(json, "\"dropped\": 3"));
  EXPECT_TRUE(Contains(json, "\"trim_decision\""));
  EXPECT_TRUE(Contains(json, "\"tenant\": 9"));
  EXPECT_TRUE(Contains(json, "\"ts_ns\": 123456789"));
}

TEST(WriteTextFileTest, RoundTripsAndReportsErrors) {
  const std::string path =
      ::testing::TempDir() + "/obs_export_test_scratch.prom";
  ASSERT_TRUE(WriteTextFile(path, "itrim_up 1\n").ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "itrim_up 1\n");
  std::remove(path.c_str());

  EXPECT_EQ(WriteTextFile("/nonexistent-dir-xyz/file.prom", "x").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace itrim::obs
