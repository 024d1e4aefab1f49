// Concurrency contract of the observability layer against a live ingest
// service: producer threads submit while a scraper thread loops Scrape()
// and TraceSnapshot() — the shape the TSan CI leg exercises — and after the
// dust settles the merged counters must equal the ground truth computed
// from what was actually submitted, and the per-tenant records must be
// bit-identical to a solo replay without any observability attached.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "ingest/ingest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

std::vector<TenantSpec> ScalarSpecs(const std::vector<double>* pool,
                                    size_t count, int round_size) {
  std::vector<TenantSpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.model = TenantModelKind::kScalar;
    spec.scalar_pool = pool;
    spec.game.round_size = round_size;
    spec.game.bootstrap_size = 60;
    spec.game.attack_ratio = 0.1;
    spec.game.board_capacity = 1500;
    specs.push_back(spec);
  }
  return specs;
}

TEST(ObsConcurrentTest, ScraperRacesIngestAndTotalsMatchGroundTruth) {
  const std::vector<double> pool = UniformPool(3000, 77);
  constexpr size_t kTenants = 6;
  constexpr int kRoundSize = 20;
  constexpr int kEventsPerTenant = 40;  // 2 reports each -> 4 rounds/tenant

  FleetConfig fleet_config;
  fleet_config.seed = 99;
  SessionFleet fleet(fleet_config, ScalarSpecs(&pool, kTenants, kRoundSize));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig config;
  config.shards = 2;
  config.trace_capacity = 4096;
  config.observe_rounds = true;
  IngestService service(config, &fleet);
  ASSERT_TRUE(service.Start().ok());

  // Scraper: hammers the full read surface while workers play rounds.
  std::atomic<bool> stop_scraper{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snap = service.Scrape();
      (void)obs::PrometheusText(snap);
      (void)service.TraceSnapshot();
      (void)service.Stats();
      ++scrapes;
    }
  });

  // Two producers split the tenants between them.
  auto produce = [&](size_t first_tenant) {
    for (int e = 0; e < kEventsPerTenant; ++e) {
      for (size_t t = first_tenant; t < kTenants; t += 2) {
        ASSERT_TRUE(service.Submit({t, 2}).ok());
      }
    }
  };
  std::thread p0(produce, 0), p1(produce, 1);
  p0.join();
  p1.join();
  ASSERT_TRUE(service.Flush().ok());
  // On a loaded machine the scraper thread may not have been scheduled yet;
  // let it finish one pass against the running service before stopping it.
  while (scrapes.load() == 0) std::this_thread::yield();
  stop_scraper.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GE(scrapes.load(), 1u);
  ASSERT_TRUE(service.Stop().ok());

  // Ground truth from the submitted arithmetic.
  constexpr uint64_t kEvents = kTenants * kEventsPerTenant;
  constexpr uint64_t kReports = kEvents * 2;
  constexpr uint64_t kRounds =
      kTenants * (kEventsPerTenant * 2 / kRoundSize);

  IngestStats stats = service.Stats();
  obs::MetricsSnapshot snap = service.Scrape();
  const auto counter = [&](obs::Counter c) {
    return snap.merged.counters[static_cast<int>(c)];
  };
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(stats.events_accepted, kEvents);
    EXPECT_EQ(stats.reports_enqueued, kReports);
    EXPECT_EQ(stats.rounds_played, kRounds);
    EXPECT_EQ(counter(obs::Counter::kIngestEventsAccepted), kEvents);
    EXPECT_EQ(counter(obs::Counter::kIngestReportsEnqueued), kReports);
    EXPECT_EQ(counter(obs::Counter::kIngestRoundsPlayed), kRounds);
    // Session instrumentation agrees with the ingest view.
    EXPECT_EQ(counter(obs::Counter::kSessionRoundsPlayed), kRounds);
    EXPECT_EQ(counter(obs::Counter::kSessionBenignReceived) +
                  counter(obs::Counter::kSessionPoisonReceived),
              counter(obs::Counter::kSessionBenignKept) +
                  counter(obs::Counter::kSessionPoisonKept) +
                  counter(obs::Counter::kSessionObservationsTrimmed));
    // Queue depth gauge reads zero after Flush+Stop.
    EXPECT_EQ(snap.merged.gauges[static_cast<int>(
                  obs::Gauge::kIngestQueueDepth)],
              0.0);
    // Every played round left a start/end trace pair.
    std::vector<obs::TraceEvent> traces = service.TraceSnapshot();
    uint64_t starts = 0;
    uint64_t ends = 0;
    int64_t prev_ts = 0;
    for (const obs::TraceEvent& ev : traces) {
      EXPECT_GE(ev.ts_ns, prev_ts);  // merged snapshot is time-sorted
      prev_ts = ev.ts_ns;
      if (ev.kind == obs::TraceKind::kRoundStart) ++starts;
      if (ev.kind == obs::TraceKind::kRoundEnd) ++ends;
    }
    EXPECT_EQ(service.TraceDropped(), 0u);
    EXPECT_EQ(starts, kRounds);
    EXPECT_EQ(ends, kRounds);
  }

  // Bit-identity: the instrumented, scraped, traced run produced exactly
  // the records of a bare solo replay (observability is write-only).
  SessionFleet replay(fleet_config, ScalarSpecs(&pool, kTenants, kRoundSize));
  ASSERT_TRUE(replay.Bootstrap().ok());
  ASSERT_TRUE(replay.BeginPerTenantStepping().ok());
  for (size_t t = 0; t < kTenants; ++t) {
    const uint64_t rounds = kEventsPerTenant * 2 / kRoundSize;
    for (uint64_t r = 0; r < rounds; ++r) {
      ASSERT_TRUE(replay.StepTenant(t).ok());
    }
  }
  for (size_t t = 0; t < kTenants; ++t) {
    std::vector<RoundRecord> ingested = fleet.TenantRounds(t).ValueOrDie();
    std::vector<RoundRecord> solo = replay.TenantRounds(t).ValueOrDie();
    ASSERT_EQ(ingested.size(), solo.size()) << "tenant " << t;
    for (size_t r = 0; r < solo.size(); ++r) {
      EXPECT_TRUE(BitEqual(ingested[r].cutoff, solo[r].cutoff));
      EXPECT_TRUE(BitEqual(ingested[r].quality, solo[r].quality));
      EXPECT_EQ(ingested[r].benign_kept, solo[r].benign_kept);
      EXPECT_EQ(ingested[r].poison_kept, solo[r].poison_kept);
    }
  }
}

TEST(ObsConcurrentTest, HibernationChurnKeepsSinksAndCounters) {
  const std::vector<double> pool = UniformPool(3000, 78);
  constexpr size_t kTenants = 5;
  constexpr int kRoundSize = 20;

  FleetConfig fleet_config;
  SessionFleet fleet(fleet_config, ScalarSpecs(&pool, kTenants, kRoundSize));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig config;
  config.shards = 1;
  config.max_resident_per_shard = 2;
  config.trace_capacity = 1024;
  config.observe_rounds = true;
  IngestService service(config, &fleet);
  ASSERT_TRUE(service.Start().ok());

  // Round-robin traffic forces eviction churn with a resident cap of 2.
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t t = 0; t < kTenants; ++t) {
      ASSERT_TRUE(service.Submit({t, kRoundSize}).ok());
      ASSERT_TRUE(service.Flush().ok());
    }
  }
  ASSERT_TRUE(service.Stop().ok());

  if constexpr (obs::kEnabled) {
    IngestStats stats = service.Stats();
    EXPECT_GT(stats.hibernations, 0u);
    EXPECT_GT(stats.rehydrations, 0u);
    EXPECT_GE(stats.hibernations, stats.rehydrations);
    EXPECT_LE(stats.resident_tenants, 2u);
    // Sinks survive hibernation: every round of every tenant was counted,
    // including rounds played by rehydrated sessions.
    obs::MetricsSnapshot snap = service.Scrape();
    EXPECT_EQ(snap.merged.counters[static_cast<int>(
                  obs::Counter::kSessionRoundsPlayed)],
              static_cast<uint64_t>(3 * kTenants));
    // Hibernate/rehydrate transitions were traced.
    uint64_t hib = 0;
    uint64_t rehyd = 0;
    for (const obs::TraceEvent& ev : service.TraceSnapshot()) {
      if (ev.kind == obs::TraceKind::kHibernate) ++hib;
      if (ev.kind == obs::TraceKind::kRehydrate) ++rehyd;
    }
    EXPECT_EQ(hib, stats.hibernations);
    EXPECT_EQ(rehyd, stats.rehydrations);
  }
}

TEST(ObsConcurrentTest, RegistryInjectionSharesOneScrapeSurface) {
  const std::vector<double> pool = UniformPool(2000, 79);
  FleetConfig fleet_config;
  SessionFleet fleet(fleet_config, ScalarSpecs(&pool, 2, 20));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  obs::MetricsRegistry registry;
  obs::MetricSlot* fleet_slot = registry.AddSlot("fleet");
  fleet.AttachObservability(fleet_slot);

  IngestConfig config;
  config.shards = 1;
  config.metrics = &registry;
  IngestService service(config, &fleet);
  EXPECT_EQ(service.metrics_registry(), &registry);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Submit({0, 20}).ok());
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Stop().ok());

  obs::MetricsSnapshot snap = service.Scrape();
  // fleet + ingest + shard0 slots all live in the injected registry.
  ASSERT_EQ(snap.slots.size(), 3u);
  EXPECT_EQ(snap.slots[0].label, "fleet");
  EXPECT_EQ(snap.slots[1].label, "ingest");
  EXPECT_EQ(snap.slots[2].label, "shard0");
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(snap.merged.counters[static_cast<int>(
                  obs::Counter::kIngestRoundsPlayed)],
              1u);
    bool saw_kernel = false;
    for (const auto& [key, value] : snap.info) {
      if (key == "kernel") saw_kernel = true;
    }
    EXPECT_TRUE(saw_kernel);
  }
}

}  // namespace
}  // namespace itrim
