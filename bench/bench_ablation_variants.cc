// Ablation: trigger-strategy variants (Section V's future-work directions).
//
// Compares the paper's rigid Titfortat against Tit-for-two-tats, Generous
// Tit-for-tat and Pavlov under the Table-III mixed adversary at several
// defection rates: average termination/first-trigger round, untrimmed
// poison fraction, and benign loss. The trade-off the paper predicts:
// forgiving variants survive noise-induced false triggers (longer
// cooperation, less benign loss) at the price of slightly more tolerated
// poison.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "data/generators.h"
#include "game/quality.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "game/variants.h"

int main(int argc, char** argv) {
  using namespace itrim;
  bench::BenchReporter reporter("ablation_variants",
                                bench::ParseFlags(argc, argv));
  const int reps = bench::EnvInt("ITRIM_BENCH_REPS", 8);
  Dataset data = MakeControl(77);

  PrintBanner(std::cout,
              "Ablation: trigger-strategy variants vs the mixed adversary "
              "(Control, ratio 0.2)");
  TablePrinter table({"variant", "p", "avg first trigger", "untrimmed poison",
                      "benign loss"});
  for (double p : {0.3, 0.7, 1.0}) {
    for (int variant = 0; variant < 4; ++variant) {
      auto cell_start = std::chrono::steady_clock::now();
      double term = 0.0, untrimmed = 0.0, loss = 0.0;
      std::string name;
      for (int rep = 0; rep < reps; ++rep) {
        uint64_t seed = 500 + static_cast<uint64_t>(rep) * 13 +
                        static_cast<uint64_t>(p * 100.0);
        double trigger_quality = p - 0.05;
        std::unique_ptr<CollectorStrategy> collector;
        switch (variant) {
          case 0:
            collector = std::make_unique<TitfortatCollector>(
                +0.01, 0.90 - 0.9, trigger_quality);
            break;
          case 1:
            collector = std::make_unique<TitForTwoTatsCollector>(
                +0.01, 0.90 - 0.9, trigger_quality);
            break;
          case 2:
            collector = std::make_unique<GenerousTitfortatCollector>(
                +0.01, 0.90 - 0.9, trigger_quality, /*generosity=*/0.3,
                /*penalty_rounds=*/3, seed ^ 0xF00D);
            break;
          default:
            collector = std::make_unique<PavlovCollector>(
                +0.01, 0.90 - 0.9, trigger_quality);
            break;
        }
        name = collector->name();
        MixedPercentileAdversary adversary(p);
        NoisyDefectShareQuality quality(
            0.90, 0.99, 0.005, 0.02, seed ^ 0xBEEF,
            DefectShareQuality::CutoffMode::kAbsolute);
        GameConfig config;
        config.rounds = 25;
        config.round_size = 2000;
        config.attack_ratio = 0.2;
        config.tth = 0.9;
        config.seed = seed;
        DistanceScoreModel model(&data);
        RoundMassReference round_mass;
        TrimmingSession game(config, &model, collector.get(), &adversary,
                             &quality, &round_mass);
        auto summary = game.RunToCompletion();
        if (!summary.ok()) {
          std::cerr << "ERROR: " << summary.status().ToString() << "\n";
          return 1;
        }
        term += summary->termination_round > 0
                    ? summary->termination_round
                    : config.rounds;
        untrimmed += summary->UntrimmedPoisonFraction();
        loss += summary->BenignLossFraction();
      }
      table.BeginRow();
      table.AddCell(name);
      table.AddNumber(p, 1);
      table.AddNumber(term / reps, 2);
      table.AddNumber(untrimmed / reps, 4);
      table.AddNumber(loss / reps, 4);
      char case_name[64];
      std::snprintf(case_name, sizeof(case_name), "%s/p=%.1f", name.c_str(),
                    p);
      reporter.AddCase(case_name)
          .Iterations(static_cast<uint64_t>(reps))
          .Ops(static_cast<uint64_t>(reps))
          .WallMs(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - cell_start)
                      .count())
          .Counter("avg_first_trigger", term / reps)
          .Counter("untrimmed_poison", untrimmed / reps);
    }
  }
  table.Print(std::cout);
  return reporter.WriteJson().ok() ? 0 : 1;
}
