// Microbench: ParallelFor scaling on the experiment engine's real unit of
// work — one full collection game plus a k-means fit per arm, the same body
// the Fig 4/5 pipeline fans out. Prints wall-clock, speedup and parallel
// efficiency at 1, 2, 4, ... jobs up to the hardware (or --jobs) limit,
// plus a checksum proving the reduction is bit-identical at every width.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/measure.h"
#include "bench/reporter.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "game/score_model.h"
#include "ml/kmeans.h"

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  bench::BenchReporter reporter("micro_parallel", flags);
  // Clamp both knobs: a negative ITRIM_BENCH_ARMS must not wrap through
  // size_t into a gigantic allocation, and a huge --jobs must not overflow
  // the 4*max_jobs default or the doubling widths loop.
  const int max_jobs_arg = flags.jobs;
  const int max_jobs = std::clamp(
      max_jobs_arg > 0 ? max_jobs_arg : DefaultNumThreads(), 1, 4096);
  const int arms =
      std::max(1, bench::EnvInt("ITRIM_BENCH_ARMS", 4 * max_jobs));

  Dataset data = MakeControl(2024);
  KMeansConfig km;
  km.k = data.num_clusters;
  km.restarts = 3;
  km.seed = 99;

  // One experiment arm: an Elastic-vs-adversary game on fresh per-arm seeds
  // followed by a k-means fit of the survivors — the hot loop of
  // RunKmeansExperiment.
  auto run_arm = [&](size_t arm) {
    TenantSpec spec;
    spec.model = TenantModelKind::kDistance;
    spec.reference = TenantReferenceKind::kRoundMass;
    spec.scheme = SchemeId::kElastic05;
    spec.scheme_options.seed = 1000 + static_cast<uint64_t>(arm) * 7919;
    spec.game.rounds = 12;
    spec.game.round_size = 200;
    spec.game.attack_ratio = 0.3;
    spec.game.tth = 0.9;
    spec.game.bootstrap_size = 200;
    spec.game.seed = 42 + static_cast<uint64_t>(arm) * 104729;
    spec.retain_survivors = true;
    spec.dataset = &data;
    auto tenant = MaterializeTenant(spec, spec.game.seed);
    if (!tenant.ok() || !tenant->session->RunToCompletion().ok()) return 0.0;
    KMeansConfig km_run = km;
    km_run.seed = km.seed + static_cast<uint64_t>(arm) * 13;
    const Dataset& survivors =
        static_cast<const DistanceScoreModel&>(*tenant->model).retained_data();
    auto model = KMeans(survivors.rows, km_run);
    if (!model.ok()) return 0.0;
    return EvaluateSse(data.rows, model->centroids);
  };

  PrintBanner(std::cout, "ParallelFor scaling: " + std::to_string(arms) +
                             " game+kmeans arms (ITRIM_BENCH_ARMS to resize)");
  TablePrinter table({"jobs", "wall(ms)", "speedup", "efficiency", "checksum"});
  std::vector<int> widths;
  for (int j = 1; j < max_jobs; j *= 2) widths.push_back(j);
  widths.push_back(max_jobs);
  double base_ms = 0.0;
  double base_checksum = 0.0;
  bool deterministic = true;
  // Shared measurement discipline (src/bench/measure.h): each width can be
  // deepened to best-of-N via ITRIM_BENCH_REPETITIONS without a rebuild;
  // the default single pass keeps the smoke shape as cheap as before.
  bench::MeasureOptions measure_opts;
  measure_opts.warmup_iters = 0;
  measure_opts.min_iters = 1;
  measure_opts.min_time_ms = 0.0;
  measure_opts.repetitions = bench::EnvInt("ITRIM_BENCH_REPETITIONS", 1);
  for (int jobs : widths) {
    std::vector<double> sse(static_cast<size_t>(arms), 0.0);
    bench::Measurement m = bench::MeasureLoop(measure_opts, [&] {
      ParallelFor(
          sse.size(), [&](size_t arm) { sse[arm] = run_arm(arm); }, jobs);
    });
    double ms = m.wall_ms / static_cast<double>(m.iterations);
    // Ordered reduction, exactly like the experiment runners.
    double checksum = 0.0;
    for (double s : sse) checksum += s;
    if (jobs == 1) {
      base_ms = ms;
      base_checksum = checksum;
    } else if (checksum != base_checksum) {
      deterministic = false;
    }
    table.BeginRow();
    table.AddNumber(jobs, 0);
    table.AddNumber(ms, 1);
    table.AddNumber(base_ms > 0.0 ? base_ms / ms : 1.0, 2);
    table.AddNumber(base_ms > 0.0 ? base_ms / ms / jobs : 1.0, 2);
    table.AddNumber(checksum, 3);
    reporter.AddCase("arms/" + std::to_string(jobs) + "jobs")
        .Iterations(static_cast<uint64_t>(arms))
        .Ops(static_cast<uint64_t>(arms))
        .WallMs(ms)
        .Counter("speedup_vs_1thr", base_ms > 0.0 ? base_ms / ms : 1.0);
  }
  table.Print(std::cout);
  if (!deterministic) {
    std::cerr << "ERROR: checksum varied with thread count — the ordered "
                 "reduction contract is broken\n";
    return 1;
  }
  reporter.AddCase("determinism/checksum_all_widths").Ok();
  std::cout << "\nchecksums identical at every width: the fan-out is "
               "bit-deterministic; only wall-clock changes with --jobs.\n";
  return reporter.WriteJson().ok() ? 0 : 1;
}
