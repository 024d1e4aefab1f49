// Example: privacy-preserving mean estimation under attack (the Section V
// case study).
//
// Honest users report their Taxi pick-up times through the Piecewise
// Mechanism; 15% of reports come from colluding input-manipulation
// attackers. We compare four defenses for one privacy budget: none,
// EMF filtering, Titfortat trimming, and Elastic trimming.
#include <cstdio>

#include "data/generators.h"
#include "game/quality.h"
#include "game/strategies.h"
#include "ldp/attacks.h"
#include "ldp/emf.h"
#include "ldp/ldp_game.h"
#include "ldp/mechanism.h"

int main(int argc, char** argv) {
  using namespace itrim;
  double epsilon = argc > 1 ? std::atof(argv[1]) : 2.0;

  Dataset taxi = MakeTaxi(/*seed=*/5, /*instances=*/50000);
  std::vector<double> population;
  for (const auto& row : taxi.rows) population.push_back(row[0]);

  PiecewiseMechanism mechanism(epsilon);
  InputManipulationAttack attack(/*fake_input=*/1.0);

  GameConfig config;
  config.rounds = 10;
  config.round_size = 2000;  // honest users per round
  config.attack_ratio = 0.15;
  config.tth = 0.9;
  config.bootstrap_size = 2000;
  config.seed = 11;

  std::printf("Taxi mean estimation, epsilon=%.1f, 15%% evasive attackers\n",
              epsilon);
  std::printf("%-22s %14s %14s\n", "defense", "estimate", "sq.error");

  auto report = [](const char* name, const LdpRunResult& r) {
    std::printf("%-22s %14.5f %14.6f\n", name, r.estimated_mean,
                r.squared_error);
  };

  // The configuration is validated at construction; a bad field (say
  // tth = 1.2) would surface here from every Run* with its message rather
  // than silently running.
  LdpCollectionGame game(config, &population, &mechanism, &attack);
  auto none = game.RunUndefended();
  auto emf = game.RunEmf(EmfConfig{});
  TitfortatCollector titfortat(+0.01, -0.03, /*never triggers*/ -1.0);
  TailMassQuality quality(config.tth);
  auto tft = game.RunTrimming(&titfortat, &quality);
  ElasticCollector elastic(0.5);
  auto ela = game.RunTrimming(&elastic, nullptr);
  for (const auto* r : {&none, &emf, &tft, &ela}) {
    if (!r->ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   r->status().ToString().c_str());
      return 1;
    }
  }
  std::printf("true mean: %.5f\n", none->true_mean);
  report("none (Ostrich)", *none);
  report("EMF (Du et al.)", *emf);
  report("Titfortat trimming", *tft);
  report("Elastic0.5 trimming", *ela);
  std::printf(
      "\nEMF estimated attack fraction beta=%.3f (true 0.15/1.15=%.3f); the "
      "evasive attack hides part of its mass inside the honest tail, which "
      "is why interactive trimming wins (Fig 9).\n",
      emf->emf_beta, 0.15 / 1.15);
  return 0;
}
