// Cross-module integration tests: full defense pipelines exercising the
// paper's headline claims end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "exp/experiments.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "game/equilibrium.h"
#include "game/score_model.h"
#include "game/session.h"
#include "ldp/attacks.h"
#include "ldp/ldp_game.h"
#include "ldp/mechanism.h"
#include "ml/kmeans.h"
#include "ml/svm.h"
#include "stats/metrics.h"

namespace itrim {
namespace {

// --- Claim: at high attack ratios, adaptive trimming beats no defense -----

TEST(EndToEndKmeans, AdaptiveTrimmingBeatsOstrichUnderHeavyAttack) {
  Dataset data = MakeControl(21);
  auto run_scheme = [&](SchemeId id) {
    double dist_acc = 0.0;
    for (uint64_t rep = 0; rep < 3; ++rep) {
      TenantSpec spec;
      spec.model = TenantModelKind::kDistance;
      spec.scheme = id;
      spec.reference = TenantReferenceKind::kRoundMass;  // the Fig 4 pipeline
      spec.game.rounds = 10;
      spec.game.round_size = 150;
      spec.game.attack_ratio = 0.4;
      spec.game.tth = 0.9;
      spec.game.seed = 1000 + rep;
      spec.retain_survivors = true;
      spec.dataset = &data;
      Tenant tenant = MaterializeTenant(spec, spec.game.seed).ValueOrDie();
      EXPECT_TRUE(tenant.session->RunToCompletion().ok());
      const Dataset& survivors =
          static_cast<const DistanceScoreModel&>(*tenant.model)
              .retained_data();
      KMeansConfig km;
      km.k = 6;
      km.restarts = 2;
      km.seed = rep;
      auto model = KMeans(survivors.rows, km).ValueOrDie();
      KMeansConfig km_clean = km;
      auto gt = KMeans(data.rows, km_clean).ValueOrDie();
      dist_acc += CentroidSetDistance(model.centroids, gt.centroids);
    }
    return dist_acc / 3.0;
  };
  double ostrich = run_scheme(SchemeId::kOstrich);
  double elastic = run_scheme(SchemeId::kElastic05);
  double titfortat = run_scheme(SchemeId::kTitfortat);
  EXPECT_LT(elastic, ostrich);
  EXPECT_LT(titfortat, ostrich);
}

// --- Claim: the ideal attack defeats a static threshold ------------------

TEST(EndToEndGame, StaticThresholdFullyEvadedAdaptivePartiallyEvaded) {
  Dataset data = MakeControl(22);
  auto play = [&](SchemeId id) {
    TenantSpec spec;
    spec.model = TenantModelKind::kDistance;
    spec.scheme = id;
    spec.game.rounds = 10;
    spec.game.round_size = 200;
    spec.game.attack_ratio = 0.3;
    spec.game.tth = 0.9;
    spec.game.seed = 77;
    spec.dataset = &data;
    Tenant tenant = MaterializeTenant(spec, spec.game.seed).ValueOrDie();
    return tenant.session->RunToCompletion().ValueOrDie();
  };

  double static_survival = play(SchemeId::kBaselineStatic).PoisonSurvivalRate();
  // The ideal attack sneaks everything below the static threshold.
  EXPECT_GT(static_survival, 0.95);

  GameSummary summary = play(SchemeId::kElastic05);
  // The Elastic equilibrium keeps the poison mild: its converged position
  // sits ~4% below Tth, far below the static scheme's just-below-threshold
  // injections.
  double mean_injection = 0.0;
  for (const auto& r : summary.rounds) {
    mean_injection += r.injection_percentile;
  }
  mean_injection /= summary.rounds.size();
  EXPECT_LT(mean_injection, 0.89);
}

// --- Claim (Theorem 3): compliance is decided by the delta boundary -------

TEST(EndToEndEquilibrium, SimulatedRepeatedGameMatchesTheorem3) {
  UltimatumGame game(PayoffParams{10.0, 6.0, 1.0, 0.5});
  double g_ac = game.SymmetricCooperationGain();
  Rng rng(11);
  for (double p : {0.2, 0.6}) {
    double d = 0.9;
    double boundary = TitfortatCompromiseBoundary(game, d, p);
    // Just below the boundary: compliance value wins; just above: defection.
    ComplianceSetting comply{g_ac, boundary * 0.9, d, p};
    ComplianceSetting defect{g_ac, boundary * 1.1, d, p};
    double defect_value = SimulateDefectionValue(comply, 20000, &rng);
    EXPECT_GT(ComplianceValue(comply), defect_value * 0.98);
    EXPECT_LT(ComplianceValue(defect), DefectionValue(defect) * 1.02);
  }
}

// --- Claim: SVM accuracy ordering under the Fig 7 setup ------------------

TEST(EndToEndSvm, DefensesPreserveAccuracyUnderHeavyAttack) {
  SvmExperimentConfig config;
  config.repetitions = 1;
  config.rounds = 8;
  config.round_size = 120;
  auto result = RunSvmExperiment(config).ValueOrDie();
  ASSERT_EQ(result.schemes.size(), 6u);
  EXPECT_GT(result.groundtruth_accuracy, 0.9);
  double elastic05 = 0.0, baseline_static = 0.0;
  for (const auto& s : result.schemes) {
    EXPECT_GT(s.accuracy, 0.5) << s.scheme;
    EXPECT_LE(s.accuracy, result.groundtruth_accuracy + 0.05) << s.scheme;
    if (s.scheme == "Elastic0.5") elastic05 = s.accuracy;
    if (s.scheme == "Baselinestatic") baseline_static = s.accuracy;
  }
  // Our scheme must not lose to the fully-evaded static baseline.
  EXPECT_GE(elastic05, baseline_static - 0.02);
}

// --- Claim (Fig 9): trimming beats EMF under evasive LDP poisoning --------

TEST(EndToEndLdp, TrimmingSchemesBeatEmf) {
  LdpExperimentConfig config;
  config.population_size = 20000;
  config.epsilons = {2.0};
  config.repetitions = 3;
  config.rounds = 6;
  config.users_per_round = 1500;
  config.attack_ratio = 0.25;
  auto result = RunLdpExperiment(config).ValueOrDie();
  double emf = 0.0, best_trim = 1e18;
  for (const auto& s : result.series) {
    if (s.scheme == "EMF") {
      emf = s.mse[0];
    } else {
      best_trim = std::min(best_trim, s.mse[0]);
    }
  }
  EXPECT_LT(best_trim, emf);
}

// --- Claim: irrational adversaries gain less (Table III direction) --------

TEST(EndToEndNonEquilibrium, ElasticPunishesEquilibriumDeviation) {
  NonEquilibriumConfig config;
  config.repetitions = 8;
  config.round_size = 600;
  auto rows =
      RunNonEquilibriumExperiment(config, {0.0, 0.5, 1.0}).ValueOrDie();
  ASSERT_EQ(rows.size(), 3u);
  // Elastic adapts: the more predictable the high-position play (p -> 1),
  // the less poison survives.
  EXPECT_GT(rows[0].elastic_untrimmed, rows[2].elastic_untrimmed);
}

// --- Public board: the percentile reference stays calibrated --------------

TEST(EndToEndBoard, ReferenceStaysCalibratedUnderHeavyAttack) {
  // The board is anchored on the clean round-0 calibration sample, so the
  // percentile domain both parties speak in cannot be poisoned or
  // self-truncated: after 15 heavily-poisoned rounds its quantiles still
  // match the clean distribution's.
  Rng rng(31);
  std::vector<double> pool;
  for (int i = 0; i < 5000; ++i) pool.push_back(rng.Uniform());
  GameConfig config;
  config.rounds = 15;
  config.round_size = 300;
  config.attack_ratio = 0.5;
  config.tth = 0.9;
  config.seed = 5;
  config.bootstrap_size = 2000;
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.99);
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  ASSERT_TRUE(game.RunToCompletion().ok());
  EXPECT_NEAR(game.board().Quantile(0.90).ValueOrDie(), 0.90, 0.03);
  EXPECT_NEAR(game.board().Quantile(0.99).ValueOrDie(), 0.99, 0.03);
  // And the cutoff consequently stayed put: benign loss ~ 10% per round,
  // no truncation spiral.
  GameSummary replay = game.RunToCompletion().ValueOrDie();
  EXPECT_NEAR(replay.BenignLossFraction(), 0.1, 0.03);
}

}  // namespace
}  // namespace itrim
