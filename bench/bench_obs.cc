// Observability overhead benchmark and identity gate.
//
// Four phases:
//
//   1. Identity gate (both modes): the same arrival schedule is pushed
//      through an uninstrumented IngestService and through a fully
//      instrumented one (deep round observation, trace ring, hibernation
//      churn, a concurrent scraper thread hammering Scrape() and the
//      exporters) and both books must be bit-identical to a solo replay.
//      Observability is write-only or it is a bug.
//   2. Steady-state allocation gate (both modes): a serial fleet with
//      fleet-, session- and trace-sinks attached steps rounds after a
//      warmup; the timed region must perform zero heap allocations — the
//      same contract tests/game/zero_alloc_test.cc proves, held here under
//      the bench sizing.
//   3. Overhead measurement: interleaved OFF/ON repetitions (alternating
//      which arm runs first) of a sustained ingest run (OFF = always-on
//      counters only, ON = deep observation: per-event submit clocks,
//      per-round wall clocks, histograms, trace records, session sinks).
//      Reports per-arm throughput and the relative overhead; the full
//      (non-smoke) mode enforces the <=5% acceptance ceiling in-binary.
//      The CI perf gate holds both arms against
//      bench/baselines/BENCH_obs.json.
//   4. Scrape export: the ON arm's final scrape is published as
//      OBS_scrape.prom (linted by tools/promlint.py in CI) and its
//      submit/batch/round distributions are attached to the BENCH JSON as
//      histogram entries (validated by tools/bench_gate.py).
//
// `--smoke` shrinks every phase and is registered with ctest as
// bench/bench_obs_smoke. Knobs: ITRIM_BENCH_TENANTS, ITRIM_BENCH_ROUNDS,
// ITRIM_BENCH_OBS_REPS, --jobs N (shard count).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "game/session.h"
#include "ingest/ingest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itrim {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Scalar-only tenant mix: the cheapest deterministic workload, so the
// timed phases measure the observability layer against a hot game loop
// rather than model-specific costs.
struct ObsFixture {
  std::vector<double> pool;

  ObsFixture() {
    Rng rng(71);
    pool.reserve(4000);
    for (int i = 0; i < 4000; ++i) pool.push_back(rng.Uniform());
  }

  std::vector<TenantSpec> BuildSpecs(size_t tenants,
                                     int round_size = 30) const {
    std::vector<TenantSpec> specs;
    specs.reserve(tenants);
    for (size_t i = 0; i < tenants; ++i) {
      TenantSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.model = TenantModelKind::kScalar;
      spec.scalar_pool = &pool;
      spec.game.round_size = static_cast<size_t>(round_size);
      spec.game.bootstrap_size = 40;
      spec.game.board_capacity = 512;
      spec.game.attack_ratio = 0.10 + 0.05 * static_cast<double>(i % 3);
      if ((i % 2) == 0) spec.reference = TenantReferenceKind::kRoundMass;
      specs.push_back(spec);
    }
    return specs;
  }

  SessionFleet MakeFleet(size_t tenants) const {
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

std::vector<std::vector<RoundRecord>> SoloReplay(const ObsFixture& fixture,
                                                 size_t tenants, int rounds) {
  SessionFleet fleet = fixture.MakeFleet(tenants);
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

// Drives one ingest run (round-robin bursts, two events per tenant round)
// and returns the per-tenant books. `instrumented` turns on every
// observability feature at once — deep round observation, a trace ring,
// hibernation churn, and a scraper thread racing the run.
struct IdentityResult {
  std::vector<std::vector<RoundRecord>> books;
  uint64_t trace_starts = 0;
  uint64_t trace_ends = 0;
  uint64_t trace_dropped = 0;
  uint64_t scrapes = 0;
  bool ok = false;
};

IdentityResult RunIngestArm(const ObsFixture& fixture, size_t tenants,
                            int rounds, bool instrumented) {
  IdentityResult result;
  SessionFleet fleet = fixture.MakeFleet(tenants);
  if (!fleet.Bootstrap().ok()) return result;
  IngestConfig config;
  config.shards = 2;
  config.batch_max = 32;
  config.max_resident_per_shard = 2;  // hibernation churn in both arms
  if (instrumented) {
    config.observe_rounds = true;
    config.trace_capacity = 1 << 14;
  }
  IngestService service(config, &fleet);
  if (!service.Start().ok()) return result;

  std::atomic<bool> stop_scraper{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper;
  if (instrumented) {
    scraper = std::thread([&] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        obs::MetricsSnapshot snap = service.Scrape();
        (void)obs::PrometheusText(snap);
        (void)obs::MetricsJson(snap);
        (void)service.TraceSnapshot();
        ++scrapes;
      }
    });
  }

  bool push_ok = true;
  std::vector<TenantSpec> specs = fixture.BuildSpecs(tenants);
  for (int r = 0; r < rounds && push_ok; ++r) {
    for (size_t i = 0; i < tenants && push_ok; ++i) {
      const uint32_t burst = static_cast<uint32_t>(specs[i].game.round_size);
      push_ok = service.Submit({i, burst / 2}).ok() &&
                service.Submit({i, burst - burst / 2}).ok();
    }
  }
  push_ok = push_ok && service.Flush().ok();
  if (instrumented) {
    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
    result.scrapes = scrapes.load();
    for (const obs::TraceEvent& ev : service.TraceSnapshot()) {
      if (ev.kind == obs::TraceKind::kRoundStart) ++result.trace_starts;
      if (ev.kind == obs::TraceKind::kRoundEnd) ++result.trace_ends;
    }
    result.trace_dropped = service.TraceDropped();
  }
  if (!push_ok || !service.Stop().ok()) return result;

  result.books.resize(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    auto records = fleet.TenantRounds(i);
    if (!records.ok()) return result;
    result.books[i] = std::move(records).ValueOrDie();
  }
  result.ok = true;
  return result;
}

// Phase 1: instrumented and uninstrumented ingestion vs the solo replay.
int RunIdentity(const ObsFixture& fixture, size_t tenants, int rounds,
                bench::BenchReporter* reporter) {
  const auto expected = SoloReplay(fixture, tenants, rounds);
  IdentityResult off = RunIngestArm(fixture, tenants, rounds, false);
  IdentityResult on = RunIngestArm(fixture, tenants, rounds, true);
  if (!off.ok || !on.ok) {
    std::fprintf(stderr, "FAIL: identity arm did not complete\n");
    return 1;
  }
  std::string diff = FirstDifference(expected, off.books);
  if (!diff.empty()) {
    std::fprintf(stderr, "FAIL: uninstrumented ingest diverged from solo "
                 "replay at %s\n", diff.c_str());
    return 1;
  }
  diff = FirstDifference(expected, on.books);
  if (!diff.empty()) {
    std::fprintf(stderr, "FAIL: instrumented ingest diverged from solo "
                 "replay at %s — observability perturbed the game\n",
                 diff.c_str());
    return 1;
  }
  const uint64_t total_rounds =
      static_cast<uint64_t>(tenants) * static_cast<uint64_t>(rounds);
  if (on.trace_dropped != 0 || on.trace_starts != total_rounds ||
      on.trace_ends != total_rounds) {
    std::fprintf(stderr,
                 "FAIL: trace ring incomplete (%llu starts, %llu ends, "
                 "%llu dropped; want %llu/%llu/0)\n",
                 static_cast<unsigned long long>(on.trace_starts),
                 static_cast<unsigned long long>(on.trace_ends),
                 static_cast<unsigned long long>(on.trace_dropped),
                 static_cast<unsigned long long>(total_rounds),
                 static_cast<unsigned long long>(total_rounds));
    return 1;
  }
  std::printf("identity: %zu tenants x %d rounds bit-identical with "
              "observability on and off (%llu scrapes raced the run)\n",
              tenants, rounds,
              static_cast<unsigned long long>(on.scrapes));
  reporter->AddCase("identity/obs_on_vs_off").Ok().Counter(
      "scrapes", static_cast<double>(on.scrapes));
  reporter->AddCase("identity/trace_complete").Ok();
  return 0;
}

// Phase 2: zero allocations in the instrumented steady state.
int RunSteadyStateAllocs(const ObsFixture& fixture, size_t tenants,
                         int rounds, bench::BenchReporter* reporter) {
  obs::MetricsRegistry registry;
  obs::MetricSlot* fleet_slot = registry.AddSlot("fleet");
  obs::MetricSlot* session_slot = registry.AddSlot("sessions");
  obs::TraceBuffer trace(1024);
  // Generous horizon: sessions reserve their record books for
  // game.rounds and the fleet reserves its aggregate log for
  // FleetConfig::rounds, so the timed region never grows either.
  const int horizon = 30 + rounds + 8;
  std::vector<TenantSpec> specs = fixture.BuildSpecs(tenants);
  for (TenantSpec& spec : specs) spec.game.rounds = horizon;
  FleetConfig fleet_config;
  fleet_config.threads = 1;
  fleet_config.seed = 4242;
  fleet_config.rounds = horizon;
  SessionFleet fleet(fleet_config, specs);
  if (!fleet.Bootstrap().ok()) return 1;
  fleet.AttachObservability(fleet_slot);
  for (size_t i = 0; i < tenants; ++i) {
    SessionObs sinks;
    sinks.metrics = session_slot;
    sinks.trace = &trace;
    sinks.tenant = i;
    if (!fleet.AttachTenantObservability(i, sinks).ok()) return 1;
  }
  // Warmup: boards fill, scratch reaches capacity, the trace ring wraps.
  for (int r = 0; r < 30; ++r) {
    if (!fleet.StepRound().ok()) return 1;
  }
  bench::AllocCounts before = bench::ThreadAllocCounts();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    if (!fleet.StepRound().ok()) return 1;
  }
  const auto stop = std::chrono::steady_clock::now();
  const uint64_t allocations =
      (bench::ThreadAllocCounts() - before).allocations;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const uint64_t ops =
      static_cast<uint64_t>(tenants) * static_cast<uint64_t>(rounds);
  reporter->AddCase("steady_state/instrumented_step")
      .Iterations(static_cast<uint64_t>(rounds))
      .Ops(ops)
      .WallMs(wall_ms)
      .Allocations(allocations)
      .Counter("tenants", static_cast<double>(tenants));
  std::printf("steady state: %d instrumented rounds x %zu tenants, "
              "%llu allocations (want 0)\n",
              rounds, tenants, static_cast<unsigned long long>(allocations));
  if (allocations != 0) {
    std::fprintf(stderr, "FAIL: instrumented steady-state step allocated "
                 "%llu times\n",
                 static_cast<unsigned long long>(allocations));
    return 1;
  }
  return 0;
}

// Phase 3: one sustained ingest arm. OFF keeps only the always-on
// counters; ON adds per-event clocks, histograms, traces and session sinks.
struct ArmResult {
  double wall_ms = 0.0;
  uint64_t reports = 0;
  obs::MetricsSnapshot scrape;  // ON arm only
  std::string prom;             // ON arm only
  bool ok = false;
};

// The overhead arms play rounds of GameConfig's default 500 reports, so
// the measured ratio reflects the per-round cost at the paper's round
// size rather than the degenerate all-queue-overhead regime the identity
// phase stresses (round_size 30 scalar rounds run in about a microsecond;
// any fixed per-round cost looks huge against them).
constexpr int kOverheadRoundSize = 500;

ArmResult RunOverheadArm(const ObsFixture& fixture, size_t tenants,
                         int rounds, int shards, bool deep) {
  ArmResult result;
  FleetConfig fleet_config;
  fleet_config.threads = 1;
  fleet_config.seed = 4242;
  SessionFleet fleet(fleet_config,
                     fixture.BuildSpecs(tenants, kOverheadRoundSize));
  if (!fleet.Bootstrap().ok()) return result;
  IngestConfig config;
  config.shards = shards;
  config.queue_capacity = 4096;
  config.batch_max = 256;
  if (deep) {
    config.observe_rounds = true;
    // A production-sized ring, small enough (128 KiB) that cycling through
    // it does not evict the game's working set.
    config.trace_capacity = 1 << 12;
  }
  IngestService service(config, &fleet);
  if (!service.Start().ok()) return result;

  std::vector<TenantSpec> specs =
      fixture.BuildSpecs(tenants, kOverheadRoundSize);
  // Warmup pass (un-timed), as in bench_ingest.
  for (size_t i = 0; i < tenants; ++i) {
    const uint32_t burst = static_cast<uint32_t>(specs[i].game.round_size);
    if (!service.Submit({i, burst}).ok()) return result;
  }
  if (!service.Flush().ok()) return result;

  uint64_t reports = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < tenants; ++i) {
      const uint32_t burst = static_cast<uint32_t>(specs[i].game.round_size);
      const uint32_t halves[2] = {burst / 2, burst - burst / 2};
      for (uint32_t half : halves) {
        if (!service.Submit({i, half}).ok()) return result;
        reports += half;
      }
    }
  }
  if (!service.Flush().ok()) return result;
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.reports = reports;
  if (deep) {
    result.scrape = service.Scrape();
    result.prom = obs::PrometheusText(result.scrape);
  }
  result.ok = service.Stop().ok();
  return result;
}

bench::BenchHistogram ToBenchHistogram(const obs::MetricsSnapshot& snap,
                                       obs::Histogram h) {
  bench::BenchHistogram out;
  const obs::HistogramInfo& info = obs::MetaOf(h);
  out.bounds.assign(info.bounds.begin(), info.bounds.end());
  const auto& hv = snap.merged.histograms[static_cast<size_t>(h)];
  out.counts = hv.counts;
  out.sum = hv.sum;
  out.count = hv.count;
  return out;
}

}  // namespace
}  // namespace itrim

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const bool smoke = flags.smoke;
  const int shards = flags.jobs > 0 ? flags.jobs : 2;
  const size_t tenants = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_TENANTS", smoke ? 120 : 600));
  // Full-mode arms play 32 rounds per tenant (~150 ms at 2 shards on a
  // 4-vCPU Xeon); against 8 rounds that cut the interquartile range of the
  // measured overhead from ~22 to ~6 points there. The even rep count
  // balances the arm order below.
  const int rounds = bench::EnvInt("ITRIM_BENCH_ROUNDS", smoke ? 3 : 32);
  const int reps = bench::EnvInt("ITRIM_BENCH_OBS_REPS", smoke ? 1 : 6);

  bench::BenchReporter reporter("obs", flags);
  ObsFixture fixture;

  if (RunIdentity(fixture, smoke ? 16 : 48, smoke ? 3 : 4, &reporter) != 0) {
    return 1;
  }
  if (RunSteadyStateAllocs(fixture, smoke ? 8 : 16, smoke ? 40 : 120,
                           &reporter) != 0) {
    return 1;
  }

  // Interleaved repetitions; the best (minimum) wall per arm is the
  // standard noise-floor estimator on shared machines. Odd reps run the ON
  // arm first: whichever arm runs second in a pair measured ~2% slower, so
  // a fixed OFF-then-ON order would charge that to observability.
  ArmResult best_off, best_on;
  for (int rep = 0; rep < reps; ++rep) {
    ArmResult off, on;
    if (rep % 2 == 0) {
      off = RunOverheadArm(fixture, tenants, rounds, shards, false);
      on = RunOverheadArm(fixture, tenants, rounds, shards, true);
    } else {
      on = RunOverheadArm(fixture, tenants, rounds, shards, true);
      off = RunOverheadArm(fixture, tenants, rounds, shards, false);
    }
    if (!off.ok || !on.ok) {
      std::fprintf(stderr, "FAIL: overhead arm did not complete\n");
      return 1;
    }
    if (!best_off.ok || off.wall_ms < best_off.wall_ms) best_off = off;
    if (!best_on.ok || on.wall_ms < best_on.wall_ms) {
      best_on = std::move(on);
    }
  }
  const double off_rps =
      static_cast<double>(best_off.reports) / (best_off.wall_ms / 1000.0);
  const double on_rps =
      static_cast<double>(best_on.reports) / (best_on.wall_ms / 1000.0);
  const double overhead_pct =
      (best_on.wall_ms - best_off.wall_ms) / best_off.wall_ms * 100.0;
  reporter.AddCase("overhead/ingest_off")
      .Iterations(static_cast<uint64_t>(rounds))
      .Ops(best_off.reports)
      .WallMs(best_off.wall_ms)
      .Counter("tenants", static_cast<double>(tenants))
      .Counter("shards", static_cast<double>(shards))
      .Counter("reports_per_sec", off_rps);
  reporter.AddCase("overhead/ingest_on")
      .Iterations(static_cast<uint64_t>(rounds))
      .Ops(best_on.reports)
      .WallMs(best_on.wall_ms)
      .Counter("tenants", static_cast<double>(tenants))
      .Counter("shards", static_cast<double>(shards))
      .Counter("reports_per_sec", on_rps);
  reporter.AddCase("overhead/delta")
      .Counter("overhead_pct", overhead_pct)
      .Counter("limit_pct", 5.0)
      .Counter("repetitions", static_cast<double>(reps));
  std::printf("overhead: off %.1f ms (%.0fk reports/s), on %.1f ms "
              "(%.0fk reports/s) — %+.2f%% (%d interleaved reps)\n",
              best_off.wall_ms, off_rps / 1000.0, best_on.wall_ms,
              on_rps / 1000.0, overhead_pct, reps);
  // The ceiling runs only in the full mode: smoke runs on saturated CI
  // boxes where a sub-second wall makes the ratio meaningless (the perf
  // gate still holds both arms against their own baselines).
  if (!smoke && overhead_pct > 5.0) {
    std::fprintf(stderr, "FAIL: deep observation costs %.2f%% ingest "
                 "throughput, above the 5%% ceiling\n", overhead_pct);
    return 1;
  }

  // Phase 4: publish the ON arm's scrape and its distributions.
  std::string out_dir = bench::EnvString("ITRIM_BENCH_OUT_DIR", ".");
  if (!out_dir.empty() && out_dir.back() != '/') out_dir += '/';
  const std::string prom_path = out_dir + "OBS_scrape.prom";
  if (!obs::WriteTextFile(prom_path, best_on.prom).ok()) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", prom_path.c_str());
    return 1;
  }
  std::printf("scrape exposition: %s (%zu bytes, %zu slots)\n",
              prom_path.c_str(), best_on.prom.size(),
              best_on.scrape.slots.size());
  reporter.AddCase("scrape/export")
      .Ok()
      .Counter("prom_bytes", static_cast<double>(best_on.prom.size()))
      .Counter("slots", static_cast<double>(best_on.scrape.slots.size()))
      .Histogram("submit_latency_us",
                 ToBenchHistogram(best_on.scrape,
                                  obs::Histogram::kIngestSubmitLatencyUs))
      .Histogram("pop_batch_size",
                 ToBenchHistogram(best_on.scrape,
                                  obs::Histogram::kIngestPopBatchSize))
      .Histogram("round_wall_us",
                 ToBenchHistogram(best_on.scrape,
                                  obs::Histogram::kIngestRoundWallUs));
  return reporter.WriteJson().ok() ? 0 : 1;
}
