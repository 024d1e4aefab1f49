// Ablation: the Elastic response strength k.
//
// Sweeps k over (0, 1) and reports the analytic equilibrium positions, the
// convergence horizon (rounds until the adversary's position is within 0.1%
// of A*), the Table-IV roundwise cost at 20 rounds, and the measured
// untrimmed-poison fraction from a simulated game. The design trade-off the
// paper discusses: larger k responds more aggressively (deeper equilibrium
// concession A*) but the coupled recurrence converges at rate k^2, so very
// large k oscillates longer and pays more transition cost.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "data/generators.h"
#include "exp/experiments.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"

int main(int argc, char** argv) {
  using namespace itrim;
  bench::BenchReporter reporter("ablation_elastic",
                                bench::ParseFlags(argc, argv));
  const int reps = bench::EnvInt("ITRIM_BENCH_REPS", 3);
  Dataset data = MakeControl(7);

  PrintBanner(std::cout, "Ablation: Elastic response strength k");
  TablePrinter table({"k", "A*-Tth", "T*-Tth", "rounds to converge",
                      "roundwise cost@20 (%)", "untrimmed poison"});
  for (double k : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    auto cell_start = std::chrono::steady_clock::now();
    ElasticTrace trace = TraceElasticDynamics(k, 400);
    int converge_round = 400;
    for (size_t i = 0; i < trace.adversary.size(); ++i) {
      if (std::fabs(trace.adversary[i] - trace.fixed_point_adversary) <
          0.001) {
        converge_round = static_cast<int>(i) + 1;
        break;
      }
    }
    double untrimmed = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      ElasticCollector collector(k);
      ElasticAdversary adversary(k);
      GameConfig config;
      config.rounds = 20;
      config.round_size = 200;
      config.attack_ratio = 0.3;
      config.tth = 0.9;
      config.seed = 42 + static_cast<uint64_t>(rep);
      DistanceScoreModel model(&data);
      RoundMassReference round_mass;
      TrimmingSession game(config, &model, &collector, &adversary, nullptr,
                           &round_mass);
      auto summary = game.RunToCompletion();
      if (!summary.ok()) {
        std::cerr << "ERROR: " << summary.status().ToString() << "\n";
        return 1;
      }
      untrimmed += summary->UntrimmedPoisonFraction();
    }
    table.BeginRow();
    table.AddNumber(k, 2);
    table.AddNumber(trace.fixed_point_adversary, 5);
    table.AddNumber(trace.fixed_point_collector, 5);
    table.AddInt(converge_round);
    table.AddNumber(100.0 * ElasticRoundwiseCost(k, 20), 4);
    table.AddNumber(untrimmed / reps, 4);
    char case_name[32];
    std::snprintf(case_name, sizeof(case_name), "k=%.2f", k);
    reporter.AddCase(case_name)
        .Iterations(static_cast<uint64_t>(reps))
        .Ops(static_cast<uint64_t>(reps))
        .WallMs(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - cell_start)
                    .count())
        .Counter("converge_round", converge_round)
        .Counter("untrimmed_poison", untrimmed / reps);
  }
  table.Print(std::cout);
  return reporter.WriteJson().ok() ? 0 : 1;
}
