// Ablation: the two trimming semantics DESIGN.md calls out.
//
//  * reference  — cutoff at the clean calibration sample's T-quantile value;
//    survival is the crisp rule "position <= T".
//  * round-mass — remove the top (1-T) fraction of each received round (the
//    MATLAB prctile-on-received semantics the paper's pipeline used); poison
//    atoms are only partially removed once they exceed the capacity.
//
// The table shows how the choice changes poison survival and benign loss
// for each scheme at a heavy attack ratio — the reason the ML experiments
// default to round-mass (it reproduces the paper's partial-evasion numbers)
// while the scalar games default to reference (it matches the game theory's
// sharp threshold logic).
#include <chrono>
#include <iostream>
#include <string>

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/table_printer.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"

int main(int argc, char** argv) {
  using namespace itrim;
  bench::BenchReporter reporter("ablation_semantics",
                                bench::ParseFlags(argc, argv));
  const double kTth = 0.9;
  const double kRatio = 0.3;
  const int reps = bench::EnvInt("ITRIM_BENCH_REPS", 3);
  Dataset data = MakeControl(2024);

  PrintBanner(std::cout,
              "Ablation: reference-percentile vs round-mass trimming "
              "(Control, ratio 0.3, Tth 0.9)");
  TablePrinter table({"scheme", "semantics", "poison survival", "benign loss",
                      "untrimmed fraction"});
  for (SchemeId id : PlottedSchemes()) {
    for (bool round_mass : {false, true}) {
      auto cell_start = std::chrono::steady_clock::now();
      double survival = 0.0, loss = 0.0, untrimmed = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        TenantSpec spec;
        spec.model = TenantModelKind::kDistance;
        spec.scheme = id;
        spec.scheme_options.seed = 11 + static_cast<uint64_t>(rep);
        spec.game.rounds = 15;
        spec.game.round_size = 200;
        spec.game.attack_ratio = kRatio;
        spec.game.tth = kTth;
        spec.game.seed = 1000 + static_cast<uint64_t>(rep) * 7 +
                         static_cast<uint64_t>(id);
        spec.retain_survivors = true;
        if (round_mass) spec.reference = TenantReferenceKind::kRoundMass;
        spec.dataset = &data;
        auto tenant = MaterializeTenant(spec, spec.game.seed);
        if (!tenant.ok()) {
          std::cerr << "ERROR: " << tenant.status().ToString() << "\n";
          return 1;
        }
        auto summary = tenant->session->RunToCompletion();
        if (!summary.ok()) {
          std::cerr << "ERROR: " << summary.status().ToString() << "\n";
          return 1;
        }
        survival += summary->PoisonSurvivalRate();
        loss += summary->BenignLossFraction();
        untrimmed += summary->UntrimmedPoisonFraction();
      }
      table.BeginRow();
      table.AddCell(SchemeName(id));
      table.AddCell(round_mass ? "round-mass" : "reference");
      table.AddNumber(survival / reps, 4);
      table.AddNumber(loss / reps, 4);
      table.AddNumber(untrimmed / reps, 4);
      reporter
          .AddCase(std::string(SchemeName(id)) + "/" +
                   (round_mass ? "round_mass" : "reference"))
          .Iterations(static_cast<uint64_t>(reps))
          .Ops(static_cast<uint64_t>(reps))
          .WallMs(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - cell_start)
                      .count())
          .Counter("poison_survival", survival / reps)
          .Counter("benign_loss", loss / reps);
    }
  }
  table.Print(std::cout);
  return reporter.WriteJson().ok() ? 0 : 1;
}
