// Companion experiment: poisoning an LDP *frequency* oracle — the setting
// of the EMF baseline's original paper (Du et al.) and of Cao et al.'s
// maximal gain attack, which Section VII positions this work against.
//
// Prints the frequency gain of the MGA and of the evasive input
// manipulation attack on OUE across privacy budgets, with and
// without the structural report trim — showing the same evasion story as
// the mean-estimation game: blatant forgeries are easy to remove, while
// protocol-compliant poison sails through any static check.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/env.h"
#include "bench/flags.h"
#include "bench/reporter.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "ldp/frequency.h"

int main(int argc, char** argv) {
  using namespace itrim;
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  bench::BenchReporter reporter("frequency_poisoning", flags);
  const int jobs = flags.jobs;
  const size_t kDomain = 32;
  const size_t kHonest = 20000;
  const size_t kAttackers = 1000;  // 5%
  const std::vector<size_t> kTargets = {28, 29, 30, 31};

  // Zipf-like truth.
  std::vector<double> truth(kDomain);
  double total = 0.0;
  for (size_t v = 0; v < kDomain; ++v) {
    truth[v] = 1.0 / static_cast<double>(v + 1);
    total += truth[v];
  }
  for (double& t : truth) t /= total;

  // A blatant variant that forges two-thirds of the domain at once —
  // structurally impossible for an honest report.
  std::vector<size_t> wide_targets(24);
  for (size_t t = 0; t < wide_targets.size(); ++t) {
    wide_targets[t] = kDomain - 1 - t;
  }

  PrintBanner(std::cout,
              "Frequency-oracle poisoning: target gain (domain 32, 5% "
              "attackers, 4 targets)");
  TablePrinter table({"oracle", "eps", "attack", "gain (no defense)",
                      "gain (structural trim)"});
  // Each (eps, attack) cell seeds its own Rng and builds its own stateless
  // oracle, so the 12 report-generation pipelines fan out across threads
  // and the table is rendered from per-cell results in serial order.
  const std::vector<double> kEpsilons = {0.5, 1.0, 2.0, 4.0};
  struct Cell {
    std::string attack_label;
    double eps = 0.0;
    double gain_plain = 0.0;
    double gain_trimmed = 0.0;
  };
  std::vector<Cell> cells(kEpsilons.size() * 3);
  auto grid_start = std::chrono::steady_clock::now();
  ParallelFor(
      cells.size(),
      [&](size_t cell) {
        const double eps = kEpsilons[cell / 3];
        const int attack_kind = static_cast<int>(cell % 3);
        auto oue = OueOracle::Make(kDomain, eps).ValueOrDie();
        Rng rng(1234 + static_cast<uint64_t>(eps * 10.0));
        std::unique_ptr<FrequencyAttack> attack;
        std::string attack_label;
        if (attack_kind == 0) {
          attack = std::make_unique<MaximalGainAttack>(wide_targets);
          attack_label = "mga-wide(24)";
        } else if (attack_kind == 1) {
          attack = std::make_unique<MaximalGainAttack>(kTargets);
          attack_label = "mga(4)";
        } else {
          attack = std::make_unique<FrequencyInputManipulation>(kTargets);
          attack_label = "input_manipulation";
        }
        std::vector<std::vector<uint8_t>> reports;
        reports.reserve(kHonest + kAttackers);
        for (size_t i = 0; i < kHonest; ++i) {
          reports.push_back(oue.Perturb(rng.Categorical(truth), &rng));
        }
        for (size_t i = 0; i < kAttackers; ++i) {
          reports.push_back(attack->PoisonReport(oue, &rng));
        }
        const auto& gain_targets = attack_kind == 0 ? wide_targets : kTargets;
        auto gain_with = [&](bool trimmed) {
          std::vector<char> keep(reports.size(), 1);
          if (trimmed) keep = TrimOueReports(reports, oue);
          ReportAggregator agg(kDomain);
          for (size_t i = 0; i < reports.size(); ++i) {
            if (keep[i]) agg.Add(reports[i]);
          }
          auto estimate = oue.Estimate(agg.bit_counts(), agg.count());
          return FrequencyGain(estimate, truth, gain_targets);
        };
        cells[cell].attack_label = attack_label;
        cells[cell].eps = eps;
        cells[cell].gain_plain = gain_with(false);
        cells[cell].gain_trimmed = gain_with(true);
      },
      jobs);
  const double grid_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - grid_start)
                             .count();
  reporter.AddCase("oue_grid")
      .Iterations(static_cast<uint64_t>(cells.size()))
      .Ops(static_cast<uint64_t>(cells.size()) * (kHonest + kAttackers))
      .WallMs(grid_ms)
      .Counter("reports_per_cell",
               static_cast<double>(kHonest + kAttackers));
  for (const Cell& cell : cells) {
    table.BeginRow();
    table.AddCell("oue");
    table.AddNumber(cell.eps, 1);
    table.AddCell(cell.attack_label);
    table.AddNumber(cell.gain_plain, 4);
    table.AddNumber(cell.gain_trimmed, 4);
    char case_name[64];
    std::snprintf(case_name, sizeof(case_name), "%s/eps=%.1f",
                  cell.attack_label.c_str(), cell.eps);
    reporter.AddCase(case_name)
        .Counter("gain_plain", cell.gain_plain)
        .Counter("gain_trimmed", cell.gain_trimmed)
        .Ok();
  }
  table.Print(std::cout);
  std::cout << "\nreading guide: the structural trim wipes out the blatant "
               "wide MGA, barely dents the plausible 4-target MGA, and "
               "cannot touch the protocol-compliant input manipulation — "
               "the evasion gap the interactive-trimming game closes for "
               "numeric collection.\n";
  return reporter.WriteJson().ok() ? 0 : 1;
}
