// Arrival-driven ingestion benchmark and determinism gate.
//
// Two phases:
//
//   1. Determinism gate (both modes): drives a heterogeneous tenant mix
//      through IngestService at several shard counts — including a
//      configuration whose resident-set bound forces hibernation churn on
//      every burst — and asserts every tenant's round records are
//      bit-identical to stepping that tenant alone.
//   2. Sustained-throughput measurement: a round-robin arrival schedule
//      (two events per tenant round) pushed through the sharded queues
//      with the resident set bounded to a quarter of the fleet, reporting
//      reports/s, Submit-latency percentiles (p50/p90/p99), producer-side
//      heap allocations of the timed region, and the hibernation
//      counters. The full (non-smoke) mode enforces the 200k reports/s
//      acceptance floor in-binary; the CI perf gate holds the same case
//      against bench/baselines/BENCH_ingest.json.
//
// `--smoke` shrinks both phases and is registered with ctest as
// bench/bench_ingest_smoke. Knobs: ITRIM_BENCH_TENANTS,
// ITRIM_BENCH_ROUNDS, --jobs N (shard count).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "ingest/ingest.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "stats/quantile.h"

namespace itrim {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Shared read-only data sources plus per-tenant LDP attack instances
// (attacks are not promised stateless; every LDP tenant gets its own).
struct IngestFixture {
  std::vector<double> pool;
  Dataset data;
  std::vector<double> population;
  PiecewiseMechanism mechanism{2.0};
  std::vector<std::unique_ptr<LdpAttack>> attacks;

  IngestFixture() {
    Rng rng(71);
    pool.reserve(4000);
    for (int i = 0; i < 4000; ++i) pool.push_back(rng.Uniform());
    data = MakeControl(29, 60);
    population.reserve(3000);
    for (int i = 0; i < 3000; ++i) population.push_back(rng.Uniform(-1.0, 1.0));
  }

  std::vector<TenantSpec> BuildSpecs(size_t tenants) {
    const std::vector<SchemeId> schemes = AllSchemes();
    std::vector<TenantSpec> specs;
    specs.reserve(tenants);
    for (size_t i = 0; i < tenants; ++i) {
      TenantSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.model = static_cast<TenantModelKind>(i % 3);
      spec.scheme = schemes[i % schemes.size()];
      spec.game.round_size = 30;
      spec.game.bootstrap_size = 40;
      spec.game.board_capacity = 512;
      spec.game.attack_ratio = 0.10 + 0.05 * static_cast<double>(i % 3);
      spec.game.round_mass_trimming = (i % 2) == 0;
      switch (spec.model) {
        case TenantModelKind::kScalar:
          spec.scalar_pool = &pool;
          break;
        case TenantModelKind::kDistance:
          spec.dataset = &data;
          break;
        case TenantModelKind::kLdp:
          spec.ldp_population = &population;
          spec.ldp_mechanism = &mechanism;
          attacks.push_back(std::make_unique<InputManipulationAttack>(1.0));
          spec.ldp_attack = attacks.back().get();
          break;
        case TenantModelKind::kResidual:
          // i % 3 never reaches kResidual: this mix has no regression source,
          // and a residual spec without one fails Validate().
          break;
      }
      specs.push_back(spec);
    }
    return specs;
  }

  SessionFleet MakeFleet(size_t tenants) {
    FleetConfig config;
    config.threads = 1;
    config.seed = 4242;
    return SessionFleet(config, BuildSpecs(tenants));
  }
};

// First bitwise difference between two per-tenant record books, or "".
std::string FirstDifference(const std::vector<std::vector<RoundRecord>>& a,
                            const std::vector<std::vector<RoundRecord>>& b) {
  if (a.size() != b.size()) return "tenant count";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return "tenant " + std::to_string(i) + " round count (" +
             std::to_string(a[i].size()) + " vs " +
             std::to_string(b[i].size()) + ")";
    }
    for (size_t r = 0; r < a[i].size(); ++r) {
      const RoundRecord& ra = a[i][r];
      const RoundRecord& rb = b[i][r];
      if (ra.round != rb.round ||
          !BitEqual(ra.collector_percentile, rb.collector_percentile) ||
          !BitEqual(ra.injection_percentile, rb.injection_percentile) ||
          !BitEqual(ra.cutoff, rb.cutoff) ||
          !BitEqual(ra.quality, rb.quality) ||
          ra.benign_received != rb.benign_received ||
          ra.poison_received != rb.poison_received ||
          ra.benign_kept != rb.benign_kept ||
          ra.poison_kept != rb.poison_kept) {
        return "tenant " + std::to_string(i) + " round " + std::to_string(r);
      }
    }
  }
  return "";
}

// Reference books: every tenant stepped alone, `rounds` times.
std::vector<std::vector<RoundRecord>> SoloReplay(IngestFixture* fixture,
                                                 size_t tenants, int rounds) {
  SessionFleet fleet = fixture->MakeFleet(tenants);
  std::vector<std::vector<RoundRecord>> books(tenants);
  if (!fleet.Bootstrap().ok() || !fleet.BeginPerTenantStepping().ok()) {
    return books;
  }
  for (size_t i = 0; i < tenants; ++i) {
    for (int r = 0; r < rounds; ++r) {
      if (!fleet.StepTenant(i).ok()) return books;
    }
    books[i] = fleet.TenantRounds(i).ValueOrDie();
  }
  return books;
}

// Phase 1: sharded + hibernating ingestion vs the solo replay.
int RunDeterminism(IngestFixture* fixture, size_t tenants, int rounds) {
  const std::vector<std::vector<RoundRecord>> expected =
      SoloReplay(fixture, tenants, rounds);

  struct Variant {
    int shards;
    size_t max_resident_per_shard;  // 0 = unbounded
    const char* label;
  };
  const Variant variants[] = {
      {1, 0, "1 shard"},
      {2, 0, "2 shards"},
      {2, 2, "2 shards, resident<=2 (hibernation churn)"},
  };
  for (const Variant& variant : variants) {
    SessionFleet fleet = fixture->MakeFleet(tenants);
    if (!fleet.Bootstrap().ok()) return 1;
    IngestConfig config;
    config.shards = variant.shards;
    config.batch_max = 32;
    config.max_resident_per_shard = variant.max_resident_per_shard;
    IngestService service(config, &fleet);
    if (!service.Start().ok()) return 1;
    // Round-robin bursts: one tenant round per pass, split in two events.
    std::vector<TenantSpec> specs = fixture->BuildSpecs(tenants);
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < tenants; ++i) {
        const uint32_t burst =
            static_cast<uint32_t>(specs[i].game.round_size);
        if (!service.Submit({i, burst / 2}).ok()) return 1;
        if (!service.Submit({i, burst - burst / 2}).ok()) return 1;
      }
    }
    if (!service.Flush().ok()) return 1;
    std::vector<std::vector<RoundRecord>> actual(tenants);
    for (size_t i = 0; i < tenants; ++i) {
      auto records = fleet.TenantRounds(i);
      if (!records.ok()) return 1;
      actual[i] = std::move(records).ValueOrDie();
    }
    const IngestStats stats = service.Stats();
    if (!service.Stop().ok()) return 1;
    std::string diff = FirstDifference(expected, actual);
    if (!diff.empty()) {
      std::fprintf(stderr, "FAIL: ingest (%s) diverged from solo replay "
                   "at %s\n", variant.label, diff.c_str());
      return 1;
    }
    // Hibernation must have engaged under the resident cap.
    if (variant.max_resident_per_shard > 0 && stats.hibernations == 0) {
      std::fprintf(stderr, "FAIL: resident bound %zu never hibernated\n",
                   variant.max_resident_per_shard);
      return 1;
    }
    std::printf("determinism: %s bit-identical to solo replay "
                "(%zu tenants x %d rounds, %llu hibernations)\n",
                variant.label, tenants, rounds,
                static_cast<unsigned long long>(stats.hibernations));
  }
  return 0;
}

struct SustainedResult {
  double wall_ms = 0.0;
  double reports_per_sec = 0.0;
  double submit_p50_us = 0.0;
  double submit_p90_us = 0.0;
  double submit_p99_us = 0.0;
  uint64_t reports = 0;
  uint64_t producer_allocations = 0;
  IngestStats stats;
  bool ok = false;
};

// Phase 2: sustained ingestion with the resident set bounded to a quarter
// of the fleet — hibernation stays active for the whole measurement.
SustainedResult RunSustained(IngestFixture* fixture, size_t tenants,
                             int rounds, int shards) {
  SustainedResult result;
  SessionFleet fleet = fixture->MakeFleet(tenants);
  if (!fleet.Bootstrap().ok()) return result;
  IngestConfig config;
  config.shards = shards;
  config.queue_capacity = 4096;
  config.batch_max = 256;
  config.max_resident_per_shard =
      std::max<size_t>(1, tenants / static_cast<size_t>(shards) / 4);
  IngestService service(config, &fleet);
  if (!service.Start().ok()) return result;

  std::vector<TenantSpec> specs = fixture->BuildSpecs(tenants);
  // Warmup pass (un-timed): lane maps, queue rings and session scratch
  // reach steady state; the timed region then measures the sustained
  // shape, not first-touch setup.
  for (size_t i = 0; i < tenants; ++i) {
    const uint32_t burst = static_cast<uint32_t>(specs[i].game.round_size);
    if (!service.Submit({i, burst}).ok()) return result;
  }
  if (!service.Flush().ok()) return result;

  // Submit latencies are sampled (1 in 32) into a pre-sized buffer so the
  // sampling itself never allocates inside the timed region.
  const uint64_t total_events = 2ull * static_cast<uint64_t>(tenants) *
                                static_cast<uint64_t>(rounds);
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(total_events / 32 + 2));

  uint64_t reports = 0;
  uint64_t event_index = 0;
  bench::AllocCounts before = bench::ThreadAllocCounts();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < tenants; ++i) {
      const uint32_t burst =
          static_cast<uint32_t>(specs[i].game.round_size);
      const uint32_t halves[2] = {burst / 2, burst - burst / 2};
      for (uint32_t half : halves) {
        if (event_index++ % 32 == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          if (!service.Submit({i, half}).ok()) return result;
          const auto t1 = std::chrono::steady_clock::now();
          latencies_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        } else if (!service.Submit({i, half}).ok()) {
          return result;
        }
        reports += half;
      }
    }
  }
  if (!service.Flush().ok()) return result;
  const auto stop = std::chrono::steady_clock::now();
  result.producer_allocations =
      (bench::ThreadAllocCounts() - before).allocations;

  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.reports = reports;
  result.reports_per_sec =
      static_cast<double>(reports) / (result.wall_ms / 1000.0);
  result.submit_p50_us = Quantile(latencies_us, 0.5);
  result.submit_p90_us = Quantile(latencies_us, 0.9);
  result.submit_p99_us = Quantile(latencies_us, 0.99);
  result.stats = service.Stats();
  result.ok = service.Stop().ok();
  return result;
}

}  // namespace
}  // namespace itrim

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const bool smoke = flags.smoke;
  const int shards = flags.jobs > 0 ? flags.jobs : 2;
  const size_t tenants = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_TENANTS", smoke ? 200 : 1000));
  const int rounds = bench::EnvInt("ITRIM_BENCH_ROUNDS", smoke ? 3 : 8);

  bench::BenchReporter reporter("ingest", flags);
  IngestFixture fixture;

  const size_t determinism_tenants = smoke ? 24 : 60;
  if (RunDeterminism(&fixture, determinism_tenants, smoke ? 3 : 4) != 0) {
    return 1;
  }
  reporter.AddCase("determinism/sharded_vs_solo").Ok();
  reporter.AddCase("determinism/hibernation_churn").Ok();

  SustainedResult sustained =
      RunSustained(&fixture, tenants, rounds, shards);
  if (!sustained.ok) {
    std::fprintf(stderr, "FAIL: sustained ingestion run failed\n");
    return 1;
  }
  reporter.AddCase("sustained/throughput")
      .Iterations(static_cast<uint64_t>(rounds))
      .Ops(sustained.reports)
      .WallMs(sustained.wall_ms)
      .Allocations(sustained.producer_allocations)
      .Counter("tenants", static_cast<double>(tenants))
      .Counter("shards", static_cast<double>(shards))
      .Counter("reports_per_sec", sustained.reports_per_sec)
      .Counter("submit_p50_us", sustained.submit_p50_us)
      .Counter("submit_p90_us", sustained.submit_p90_us)
      .Counter("submit_p99_us", sustained.submit_p99_us)
      .Counter("rounds_played",
               static_cast<double>(sustained.stats.rounds_played))
      .Counter("hibernations",
               static_cast<double>(sustained.stats.hibernations))
      .Counter("rehydrations",
               static_cast<double>(sustained.stats.rehydrations))
      .Counter("resident_tenants",
               static_cast<double>(sustained.stats.resident_tenants));

  std::printf(
      "sustained: %zu tenants x %d rounds, %d shards: %.1f ms — "
      "%.0fk reports/s, submit p50/p90/p99 %.2f/%.2f/%.2f us, "
      "%llu producer allocs, %llu hibernations, %zu resident\n",
      tenants, rounds, shards, sustained.wall_ms,
      sustained.reports_per_sec / 1000.0, sustained.submit_p50_us,
      sustained.submit_p90_us, sustained.submit_p99_us,
      static_cast<unsigned long long>(sustained.producer_allocations),
      static_cast<unsigned long long>(sustained.stats.hibernations),
      sustained.stats.resident_tenants);
  if (sustained.stats.hibernations == 0) {
    std::fprintf(stderr, "FAIL: hibernation never engaged during the "
                 "sustained measurement\n");
    return 1;
  }

  // The acceptance floor runs only in the full mode: smoke runs on
  // saturated CI boxes where absolute throughput is not meaningful (the
  // perf gate still holds the smoke case against its own baseline).
  if (!smoke && sustained.reports_per_sec < 200000.0) {
    std::fprintf(stderr,
                 "FAIL: sustained throughput %.0f reports/s below the "
                 "200k floor\n", sustained.reports_per_sec);
    return 1;
  }
  return reporter.WriteJson().ok() ? 0 : 1;
}
