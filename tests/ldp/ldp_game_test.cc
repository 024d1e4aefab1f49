#include "ldp/ldp_game.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "data/generators.h"

namespace itrim {
namespace {

std::vector<double> TaxiPopulation(size_t n = 20000, uint64_t seed = 3) {
  Dataset taxi = MakeTaxi(seed, n);
  std::vector<double> population;
  for (const auto& row : taxi.rows) population.push_back(row[0]);
  return population;
}

GameConfig SmallConfig() {
  GameConfig c;
  c.rounds = 5;
  c.round_size = 2000;
  c.attack_ratio = 0.1;
  c.tth = 0.9;
  c.bootstrap_size = 2000;
  c.seed = 42;
  return c;
}

TEST(LdpGameTest, CleanEstimateIsAccurate) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(3.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.0;
  LdpCollectionGame game(config, &population, &mech, &attack);
  auto result = game.RunUndefended().ValueOrDie();
  EXPECT_NEAR(result.estimated_mean, result.true_mean, 0.05);
  EXPECT_LT(result.squared_error, 0.01);
}

TEST(LdpGameTest, UndefendedAttackSkewsMean) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(3.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.3;
  LdpCollectionGame game(config, &population, &mech, &attack);
  auto result = game.RunUndefended().ValueOrDie();
  // 30% attackers reporting x=1 pull the mean upward noticeably.
  EXPECT_GT(result.estimated_mean, result.true_mean + 0.1);
}

TEST(LdpGameTest, TrimmingReducesAttackBias) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(3.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.2;

  InputManipulationAttack attack_a(1.0);
  LdpCollectionGame undefended_game(config, &population, &mech, &attack_a);
  double undefended = undefended_game.RunUndefended().ValueOrDie()
                          .squared_error;

  InputManipulationAttack attack_b(1.0);
  LdpCollectionGame trimmed_game(config, &population, &mech, &attack_b);
  ElasticCollector collector(0.5);
  double trimmed =
      trimmed_game.RunTrimming(&collector, nullptr).ValueOrDie()
          .squared_error;
  EXPECT_LT(trimmed, undefended);
}

TEST(LdpGameTest, TrimmingRecordsRounds) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(2.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  LdpCollectionGame game(config, &population, &mech, &attack);
  TitfortatCollector collector(+0.01, -0.03, -1.0);
  TailMassQuality quality(config.tth);
  auto result = game.RunTrimming(&collector, &quality).ValueOrDie();
  ASSERT_EQ(result.game.rounds.size(), 5u);
  for (const auto& r : result.game.rounds) {
    EXPECT_EQ(r.benign_received, config.round_size);
    EXPECT_EQ(r.poison_received,
              static_cast<size_t>(0.1 * config.round_size));
    EXPECT_GT(r.benign_kept, 0u);
  }
}

TEST(LdpGameTest, EmfRunsAndEstimatesBeta) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(2.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.2;
  LdpCollectionGame game(config, &population, &mech, &attack);
  auto result = game.RunEmf(EmfConfig{}).ValueOrDie();
  EXPECT_GT(result.emf_beta, 0.0);
  EXPECT_TRUE(std::isfinite(result.estimated_mean));
}

TEST(LdpGameTest, TrimmingBeatsEmfAgainstEvasiveAttack) {
  // The paper's Fig 9 claim: against input manipulation, interactive
  // trimming outperforms the EM filter.
  auto population = TaxiPopulation(30000, 5);
  PiecewiseMechanism mech(2.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.25;
  config.rounds = 8;
  double trim_mse = 0.0, emf_mse = 0.0;
  for (uint64_t rep = 0; rep < 3; ++rep) {
    GameConfig rep_config = config;
    rep_config.seed = 100 + rep;
    InputManipulationAttack attack(1.0);
    LdpCollectionGame game(rep_config, &population, &mech, &attack);
    ElasticCollector collector(0.5);
    trim_mse += game.RunTrimming(&collector, nullptr).ValueOrDie()
                    .squared_error;
    emf_mse += game.RunEmf(EmfConfig{}).ValueOrDie().squared_error;
  }
  EXPECT_LT(trim_mse, emf_mse);
}

TEST(LdpGameTest, DeterministicInSeed) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(2.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  auto run = [&](uint64_t seed) {
    GameConfig c = config;
    c.seed = seed;
    LdpCollectionGame game(c, &population, &mech, &attack);
    ElasticCollector collector(0.1);
    return game.RunTrimming(&collector, nullptr).ValueOrDie().estimated_mean;
  };
  EXPECT_DOUBLE_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(LdpGameTest, EmptyPopulationFails) {
  std::vector<double> population;
  PiecewiseMechanism mech(2.0);
  InputManipulationAttack attack(1.0);
  LdpCollectionGame game(SmallConfig(), &population, &mech, &attack);
  EXPECT_FALSE(game.RunUndefended().ok());
  ElasticCollector collector(0.5);
  EXPECT_FALSE(game.RunTrimming(&collector, nullptr).ok());
  EXPECT_FALSE(game.RunEmf(EmfConfig{}).ok());
}

// Property: across privacy budgets, the clean (no-attack) trimming pipeline
// keeps the squared error bounded — the defense must not destroy utility.
class EpsilonSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweepTest, CleanPipelineKeepsUtility) {
  auto population = TaxiPopulation();
  PiecewiseMechanism mech(GetParam());
  InputManipulationAttack attack(1.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.0;
  LdpCollectionGame game(config, &population, &mech, &attack);
  ElasticCollector collector(0.5);
  auto result = game.RunTrimming(&collector, nullptr).ValueOrDie();
  EXPECT_LT(result.squared_error, 0.05) << "eps=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweepTest,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0));

}  // namespace
}  // namespace itrim
