// Property-based suites: invariants that must hold across randomized
// configurations of the whole stack (TEST_P sweeps serve as the
// property-testing harness).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/experiments.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "game/lagrangian.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ldp/attacks.h"
#include "ldp/ldp_game.h"
#include "ldp/mechanism.h"

namespace itrim {
namespace {

// ---------------------------------------------------------------------------
// Property: game bookkeeping identities hold for every scheme and ratio.
// ---------------------------------------------------------------------------

struct GameCase {
  SchemeId scheme;
  double attack_ratio;
  uint64_t seed;
};

class SchemeInvariantTest : public ::testing::TestWithParam<GameCase> {};

TEST_P(SchemeInvariantTest, AccountingAndDomainInvariants) {
  const GameCase& param = GetParam();
  Dataset data = MakeControl(param.seed);
  TenantSpec spec;
  spec.model = TenantModelKind::kDistance;
  spec.scheme = param.scheme;
  spec.game.rounds = 8;
  spec.game.round_size = 150;
  spec.game.attack_ratio = param.attack_ratio;
  spec.game.tth = 0.9;
  spec.game.seed = param.seed;
  spec.retain_survivors = true;
  spec.dataset = &data;
  Tenant tenant = MaterializeTenant(spec, spec.game.seed).ValueOrDie();
  GameSummary summary = tenant.session->RunToCompletion().ValueOrDie();
  const auto& model = static_cast<const DistanceScoreModel&>(*tenant.model);

  // (1) Every round's kept counts never exceed received counts.
  for (const auto& r : summary.rounds) {
    EXPECT_LE(r.benign_kept, r.benign_received);
    EXPECT_LE(r.poison_kept, r.poison_received);
    // (2) Thresholds are percentiles (or the no-trim sentinel).
    EXPECT_GE(r.collector_percentile, 0.0);
  }
  // (3) Retained-state sizes agree with the summary.
  EXPECT_EQ(model.retained_data().rows.size(), summary.TotalKept());
  EXPECT_EQ(model.retained_is_poison().size(), summary.TotalKept());
  // (4) Fractions live in [0, 1].
  EXPECT_GE(summary.UntrimmedPoisonFraction(), 0.0);
  EXPECT_LE(summary.UntrimmedPoisonFraction(), 1.0);
  EXPECT_GE(summary.BenignLossFraction(), 0.0);
  EXPECT_LE(summary.BenignLossFraction(), 1.0);
  // (5) Deterministic replay.
  Tenant replay_tenant = MaterializeTenant(spec, spec.game.seed).ValueOrDie();
  GameSummary replay = replay_tenant.session->RunToCompletion().ValueOrDie();
  EXPECT_DOUBLE_EQ(replay.UntrimmedPoisonFraction(),
                   summary.UntrimmedPoisonFraction());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndRatios, SchemeInvariantTest,
    ::testing::Values(GameCase{SchemeId::kOstrich, 0.05, 1},
                      GameCase{SchemeId::kOstrich, 0.5, 2},
                      GameCase{SchemeId::kBaseline09, 0.2, 3},
                      GameCase{SchemeId::kBaselineStatic, 0.3, 4},
                      GameCase{SchemeId::kTitfortat, 0.2, 5},
                      GameCase{SchemeId::kTitfortat, 0.5, 6},
                      GameCase{SchemeId::kElastic01, 0.25, 7},
                      GameCase{SchemeId::kElastic05, 0.25, 8},
                      GameCase{SchemeId::kElastic05, 0.5, 9}));

// ---------------------------------------------------------------------------
// Property: trimming overhead rises as the threshold tightens (clean data).
// ---------------------------------------------------------------------------

class OverheadMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(OverheadMonotonicityTest, TighterThresholdMoreBenignLoss) {
  const double tth = GetParam();
  Rng rng(13);
  std::vector<double> pool;
  for (int i = 0; i < 4000; ++i) pool.push_back(rng.Normal());
  GameConfig config;
  config.rounds = 6;
  config.round_size = 400;
  config.attack_ratio = 0.0;
  config.tth = tth;
  config.seed = 17;
  StaticCollector tight(tth - 0.05, "tight");
  StaticCollector loose(tth, "loose");
  FixedPercentileAdversary adversary(0.99);
  IdentityScoreModel tight_model(&pool), loose_model(&pool);
  TrimmingSession game_tight(config, &tight_model, &tight, &adversary,
                             nullptr);
  TrimmingSession game_loose(config, &loose_model, &loose, &adversary,
                             nullptr);
  double loss_tight =
      game_tight.RunToCompletion().ValueOrDie().BenignLossFraction();
  double loss_loose =
      game_loose.RunToCompletion().ValueOrDie().BenignLossFraction();
  EXPECT_GT(loss_tight, loss_loose);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, OverheadMonotonicityTest,
                         ::testing::Values(0.8, 0.9, 0.95, 0.97));

// ---------------------------------------------------------------------------
// Property: poison survival is monotone in the injection position relative
// to a static threshold — inject below, survive; inject above, die.
// ---------------------------------------------------------------------------

class EvasionBoundaryTest : public ::testing::TestWithParam<double> {};

TEST_P(EvasionBoundaryTest, SurvivalFlipsAtThreshold) {
  const double offset = GetParam();
  Rng rng(19);
  std::vector<double> pool;
  for (int i = 0; i < 4000; ++i) pool.push_back(rng.Uniform());
  GameConfig config;
  config.rounds = 5;
  config.round_size = 400;
  config.attack_ratio = 0.1;
  config.tth = 0.9;
  config.seed = 23;
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.9 + offset);
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  double survival = game.RunToCompletion().ValueOrDie().PoisonSurvivalRate();
  if (offset <= 0.0) {
    EXPECT_GT(survival, 0.9) << "offset=" << offset;
  } else {
    EXPECT_LT(survival, 0.35) << "offset=" << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, EvasionBoundaryTest,
                         ::testing::Values(-0.05, -0.02, 0.0, 0.03, 0.08));

// ---------------------------------------------------------------------------
// Property: energy conservation of the Euler-Lagrange integrator across
// random masses, spring constants, and initial conditions.
// ---------------------------------------------------------------------------

class EnergySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnergySweepTest, RandomOscillatorConservesEnergy) {
  Rng rng(GetParam());
  double m_a = rng.Uniform(0.5, 5.0);
  double m_c = rng.Uniform(0.5, 5.0);
  double k = rng.Uniform(0.1, 10.0);
  ElasticPotential potential(k);
  GameLagrangian lagrangian(m_a, m_c, &potential);
  EulerLagrangeIntegrator integrator(&lagrangian);
  GameState initial{rng.Uniform(-2, 2), rng.Uniform(-2, 2),
                    rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  auto traj = integrator.Integrate(initial, 0.005, 4000);
  double e0 = lagrangian.Energy(traj.front().state);
  double max_drift = 0.0;
  for (const auto& pt : traj) {
    max_drift =
        std::max(max_drift, std::fabs(lagrangian.Energy(pt.state) - e0));
  }
  EXPECT_LT(max_drift, 1e-6 * std::max(1.0, std::fabs(e0)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergySweepTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Property: LDP mechanisms stay unbiased when composed with the attack
// pipeline's clamping, across epsilons and inputs.
// ---------------------------------------------------------------------------

struct LdpCase {
  const char* mechanism;
  double epsilon;
};

class LdpCompositionTest : public ::testing::TestWithParam<LdpCase> {};

TEST_P(LdpCompositionTest, RoundGenerationPreservesMeanWithoutAttack) {
  const LdpCase& param = GetParam();
  Dataset taxi = MakeTaxi(7, 10000);
  std::vector<double> population;
  for (const auto& row : taxi.rows) population.push_back(row[0]);
  auto mech = MakeMechanism(param.mechanism, param.epsilon).ValueOrDie();
  InputManipulationAttack attack(1.0);
  GameConfig config;
  config.rounds = 4;
  config.round_size = 3000;
  config.attack_ratio = 0.0;
  config.seed = 29;
  LdpCollectionGame game(config, &population, mech.get(), &attack);
  auto result = game.RunUndefended().ValueOrDie();
  EXPECT_NEAR(result.estimated_mean, result.true_mean,
              6.0 / std::sqrt(12000.0) * (2.0 / param.epsilon + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, LdpCompositionTest,
    ::testing::Values(LdpCase{"laplace", 1.0}, LdpCase{"laplace", 4.0},
                      LdpCase{"duchi", 1.0}, LdpCase{"duchi", 4.0},
                      LdpCase{"piecewise", 1.0}, LdpCase{"piecewise", 4.0}));

// ---------------------------------------------------------------------------
// Property: Elastic dynamics converge for every k in (0, 1) and the
// roundwise cost vanishes with the horizon.
// ---------------------------------------------------------------------------

class ElasticKSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ElasticKSweepTest, CostVanishesWithHorizon) {
  const double k = GetParam();
  double prev = 1e18;
  for (int n : {5, 10, 20, 40, 80}) {
    double cost = ElasticRoundwiseCost(k, n);
    EXPECT_LT(cost, prev) << "n=" << n;
    prev = cost;
  }
  // Cumulative cost converges: doubling the horizon halves roundwise cost.
  EXPECT_NEAR(ElasticRoundwiseCost(k, 80),
              ElasticRoundwiseCost(k, 40) / 2.0,
              0.1 * ElasticRoundwiseCost(k, 40));
}

INSTANTIATE_TEST_SUITE_P(Ks, ElasticKSweepTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace itrim
