// SessionFleet scaling benchmark (tenants x threads) and determinism gate.
//
// The fleet's contract is that sharded parallel stepping changes only
// wall-clock, never results. This binary
//
//   1. runs a 1000-tenant heterogeneous fleet (scalar / distance / LDP
//      tenants cycling through every scheme) at 1 thread and at N threads
//      and asserts the two runs (FleetSummary plus the aggregates StepRound
//      returned) are bit-identical,
//   2. checkpoints the same fleet mid-stream, restores it into a fresh
//      fleet, finishes the run and asserts bit-identity again, and
//   3. times StepRound throughput over a tenants x threads grid and prints
//      the scaling table (the README "Fleet" section quotes it).
//
// `--smoke` runs phases 1 and 2 plus a single small timing cell; it is
// registered with ctest as bench/bench_fleet_smoke. Knobs:
// ITRIM_BENCH_TENANTS, ITRIM_BENCH_ROUNDS, --jobs N (caps the thread
// column of the full table).
//
// Telemetry: every run writes BENCH_fleet.json (bench/reporter.h). The
// 1-thread steady-state timing case carries the heap-allocation count of
// its timed region; the CI perf gate (tools/bench_gate.py) holds both that
// count at zero and the tenant-round throughput against
// bench/baselines/BENCH_fleet.json.
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
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

namespace itrim {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Shared read-only data sources plus the per-tenant LDP attack instances
// (attacks are not promised to be stateless, so every LDP tenant gets its
// own).
struct FleetFixture {
  std::vector<double> pool;
  Dataset data;
  std::vector<double> population;
  PiecewiseMechanism mechanism{2.0};
  std::vector<std::unique_ptr<LdpAttack>> attacks;

  FleetFixture() {
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
      // Even tenants trim by round mass, except LDP ones: their band trim
      // is defined against the board reference.
      if ((i % 2) == 0 && spec.model != TenantModelKind::kLdp) {
        spec.reference = TenantReferenceKind::kRoundMass;
      }
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
};

// One lockstep run: the aggregates StepRound returned, in round order, and
// the summary Finish() gave after the last round.
struct FleetRun {
  std::vector<FleetRoundAggregate> rounds;
  FleetSummary summary;
};

// Plays `rounds` lockstep rounds, appending each aggregate to `run`.
Status StepRounds(SessionFleet* fleet, int rounds, FleetRun* run) {
  for (int r = 0; r < rounds; ++r) {
    ITRIM_ASSIGN_OR_RETURN(FleetRoundAggregate aggregate, fleet->StepRound());
    run->rounds.push_back(aggregate);
  }
  return Status::OK();
}

// Bootstrap + config().rounds StepRounds + Finish.
Status RunFleet(SessionFleet* fleet, FleetRun* run) {
  ITRIM_RETURN_NOT_OK(fleet->Bootstrap());
  ITRIM_RETURN_NOT_OK(StepRounds(fleet, fleet->config().rounds, run));
  run->summary = fleet->Finish();
  return Status::OK();
}

// First bitwise difference between two fleet runs, or "" when identical.
// Aggregates are derived from the per-tenant records, so comparing
// records + aggregate totals covers the whole reduction.
std::string FirstDifference(const FleetRun& run_a, const FleetRun& run_b) {
  const FleetSummary& a = run_a.summary;
  const FleetSummary& b = run_b.summary;
  if (a.tenants.size() != b.tenants.size()) return "tenant count";
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    const GameSummary& ga = a.tenants[i];
    const GameSummary& gb = b.tenants[i];
    if (ga.termination_round != gb.termination_round ||
        ga.rounds.size() != gb.rounds.size()) {
      return "tenant " + std::to_string(i) + " shape";
    }
    for (size_t r = 0; r < ga.rounds.size(); ++r) {
      const RoundRecord& ra = ga.rounds[r];
      const RoundRecord& rb = gb.rounds[r];
      if (!BitEqual(ra.collector_percentile, rb.collector_percentile) ||
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
  const std::vector<FleetRoundAggregate>& ra = run_a.rounds;
  const std::vector<FleetRoundAggregate>& rb = run_b.rounds;
  if (ra.size() != rb.size()) return "aggregate count";
  for (size_t r = 0; r < ra.size(); ++r) {
    if (!BitEqual(ra[r].trim_rate, rb[r].trim_rate) ||
        !BitEqual(ra[r].poison_acceptance, rb[r].poison_acceptance) ||
        !BitEqual(ra[r].tenant_trim_rate.p50, rb[r].tenant_trim_rate.p50) ||
        !BitEqual(ra[r].tenant_quality.p90, rb[r].tenant_quality.p90)) {
      return "aggregate round " + std::to_string(r);
    }
  }
  if (a.total_received != b.total_received || a.total_kept != b.total_kept ||
      a.total_poison_kept != b.total_poison_kept) {
    return "totals";
  }
  return "";
}

FleetConfig MakeConfig(int rounds, int threads) {
  FleetConfig config;
  config.rounds = rounds;
  config.threads = threads;
  config.seed = 4242;
  return config;
}

// Phase 1+2: the determinism gate of the acceptance criteria.
int RunDeterminism(FleetFixture* fixture, size_t tenants, int rounds,
                   int threads) {
  SessionFleet serial(MakeConfig(rounds, 1), fixture->BuildSpecs(tenants));
  FleetRun serial_run;
  Status status = RunFleet(&serial, &serial_run);
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: serial fleet: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  SessionFleet parallel(MakeConfig(rounds, threads),
                        fixture->BuildSpecs(tenants));
  FleetRun parallel_run;
  status = RunFleet(&parallel, &parallel_run);
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: parallel fleet: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::string diff = FirstDifference(serial_run, parallel_run);
  if (!diff.empty()) {
    std::fprintf(stderr, "FAIL: 1-thread vs %d-thread diverged at %s\n",
                 threads, diff.c_str());
    return 1;
  }
  std::printf("determinism: %zu tenants, 1 vs %d threads bit-identical "
              "(%d rounds)\n",
              tenants, threads, rounds);

  // Mid-stream checkpoint/restore, resumed at yet another thread count.
  // The resumed run's aggregates are the first fleet's followed by the
  // restored fleet's.
  SessionFleet first(MakeConfig(rounds, threads), fixture->BuildSpecs(tenants));
  if (!first.Bootstrap().ok()) return 1;
  const int cut = rounds / 2;
  FleetRun resumed_run;
  if (!StepRounds(&first, cut, &resumed_run).ok()) return 1;
  Result<FleetCheckpoint> checkpoint = first.Checkpoint();
  if (!checkpoint.ok()) return 1;
  SessionFleet resumed(MakeConfig(rounds, 2), fixture->BuildSpecs(tenants));
  if (!resumed.Restore(*checkpoint).ok()) {
    std::fprintf(stderr, "FAIL: fleet restore failed\n");
    return 1;
  }
  if (!StepRounds(&resumed, rounds - cut, &resumed_run).ok()) return 1;
  resumed_run.summary = resumed.Finish();
  diff = FirstDifference(serial_run, resumed_run);
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "FAIL: checkpoint/restore stream diverged at %s\n",
                 diff.c_str());
    return 1;
  }
  std::printf("determinism: checkpoint at round %d + restore "
              "bit-identical\n", cut);
  return 0;
}

struct Cell {
  double wall_ms = 0.0;
  double tenant_rounds_per_sec = 0.0;
  uint64_t allocations = 0;  ///< heap traffic of the timed region
};

// Times `rounds` StepRounds after a few un-timed warmup rounds (the warmup
// is where scratch buffers reach steady-state capacity — the fractional
// poison quota only hits its per-tenant maximum on the second round; at 1
// thread the timed region is then allocation-free, which the JSON records
// and the CI gate asserts).
Cell TimeFleet(FleetFixture* fixture, size_t tenants, int rounds,
               int threads) {
  const int warmup_rounds = 3;
  SessionFleet fleet(MakeConfig(rounds + warmup_rounds, threads),
                     fixture->BuildSpecs(tenants));
  Cell cell;
  if (!fleet.Bootstrap().ok()) return cell;
  for (int r = 0; r < warmup_rounds; ++r) {
    if (!fleet.StepRound().ok()) return cell;
  }
  bench::AllocCounts before = bench::ThreadAllocCounts();
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    if (!fleet.StepRound().ok()) return cell;
  }
  auto stop = std::chrono::steady_clock::now();
  cell.allocations =
      (bench::ThreadAllocCounts() - before).allocations;
  cell.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  cell.tenant_rounds_per_sec =
      static_cast<double>(tenants) * rounds / (cell.wall_ms / 1000.0);
  return cell;
}

}  // namespace
}  // namespace itrim

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  const bool smoke = flags.smoke;
  const int max_threads = flags.jobs > 0 ? flags.jobs : 4;
  const size_t tenants = static_cast<size_t>(
      bench::EnvInt("ITRIM_BENCH_TENANTS", 1000));
  const int rounds = bench::EnvInt("ITRIM_BENCH_ROUNDS", smoke ? 4 : 8);

  bench::BenchReporter reporter("fleet", flags);
  FleetFixture fixture;
  if (RunDeterminism(&fixture, tenants, rounds, max_threads) != 0) return 1;
  reporter.AddCase("determinism/1_vs_n_threads").Ok();
  reporter.AddCase("determinism/checkpoint_restore").Ok();

  // Per-thread-count case names are stable across machines so the gate and
  // the nightly trend can key on them; the 1-thread case is the
  // steady-state contract carrier (throughput + zero allocations).
  auto record_cell = [&](size_t n, int threads, const Cell& cell) {
    const uint64_t ops = static_cast<uint64_t>(n) *
                         static_cast<uint64_t>(rounds);
    reporter
        .AddCase("steprounds/" + std::to_string(n) + "t/" +
                 std::to_string(threads) + "thr")
        .Iterations(static_cast<uint64_t>(rounds))
        .Ops(ops)
        .WallMs(cell.wall_ms)
        .Allocations(cell.allocations)
        .Counter("tenants", static_cast<double>(n))
        .Counter("threads", static_cast<double>(threads))
        .Counter("tenant_rounds_per_sec", cell.tenant_rounds_per_sec);
  };

  if (smoke) {
    // Thread-local allocation counting only sees the calling thread, so
    // the zero-allocation claim is measured where it is defined: the
    // serial fast path.
    Cell serial = TimeFleet(&fixture, tenants, rounds, 1);
    record_cell(tenants, 1, serial);
    std::printf("smoke timing: %zu tenants x %d rounds, 1 thread: "
                "%.1f ms (%.0f tenant-rounds/s, %llu allocs)\n",
                tenants, rounds, serial.wall_ms,
                serial.tenant_rounds_per_sec,
                static_cast<unsigned long long>(serial.allocations));
    if (max_threads > 1) {
      Cell cell = TimeFleet(&fixture, tenants, rounds, max_threads);
      record_cell(tenants, max_threads, cell);
      std::printf("smoke timing: %zu tenants x %d rounds, %d threads: "
                  "%.1f ms (%.0f tenant-rounds/s)\n",
                  tenants, rounds, max_threads, cell.wall_ms,
                  cell.tenant_rounds_per_sec);
    }
    return reporter.WriteJson().ok() ? 0 : 1;
  }

  std::printf("\nscaling (wall ms for %d lockstep rounds; "
              "tenant-rounds/s in parens)\n", rounds);
  std::printf("%10s", "tenants");
  for (int t = 1; t <= max_threads; t *= 2) {
    std::printf("  %8d thr", t);
  }
  std::printf("\n");
  for (size_t n : {static_cast<size_t>(256), tenants, 4 * tenants}) {
    std::printf("%10zu", n);
    for (int t = 1; t <= max_threads; t *= 2) {
      Cell cell = TimeFleet(&fixture, n, rounds, t);
      record_cell(n, t, cell);
      std::printf("  %7.0fms (%.0fk/s)", cell.wall_ms,
                  cell.tenant_rounds_per_sec / 1000.0);
    }
    std::printf("\n");
  }
  return reporter.WriteJson().ok() ? 0 : 1;
}
