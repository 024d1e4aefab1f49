// Whole-game tests of TrimmingSession::RunToCompletion over hand-wired
// score models: bookkeeping identities, trim semantics, degenerate games
// and the models' retained survivors, in the scalar and distance settings.
#include "game/session.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/generators.h"
#include "game/reference_policy.h"
#include "game/score_model.h"

namespace itrim {
namespace {

std::vector<double> UniformPool(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pool;
  for (size_t i = 0; i < n; ++i) pool.push_back(rng.Uniform());
  return pool;
}

GameConfig SmallConfig() {
  GameConfig c;
  c.rounds = 10;
  c.round_size = 200;
  c.attack_ratio = 0.2;
  c.tth = 0.9;
  c.bootstrap_size = 500;
  c.seed = 12;
  return c;
}

TEST(GameConfigTest, Validation) {
  GameConfig c = SmallConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.rounds = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.round_size = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.attack_ratio = -0.1;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.tth = 1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.bootstrap_size = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ScalarGameTest, OstrichKeepsEverything) {
  auto pool = UniformPool(2000, 1);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.99);
  IdentityScoreModel model(&pool);
  TrimmingSession game(SmallConfig(), &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  ASSERT_EQ(summary.rounds.size(), 10u);
  for (const auto& r : summary.rounds) {
    EXPECT_EQ(r.benign_kept, r.benign_received);
    EXPECT_EQ(r.poison_kept, r.poison_received);
    EXPECT_EQ(r.poison_received, 40u);  // 0.2 * 200
  }
  EXPECT_DOUBLE_EQ(summary.BenignLossFraction(), 0.0);
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 1.0);
  EXPECT_NEAR(summary.UntrimmedPoisonFraction(), 0.2 / 1.2, 1e-9);
}

TEST(ScalarGameTest, StaticThresholdBlocksHighPoison) {
  auto pool = UniformPool(2000, 2);
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.99);  // always above the cutoff
  IdentityScoreModel model(&pool);
  TrimmingSession game(SmallConfig(), &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 0.0);
  // Static trimming pays ~10% benign loss every round.
  EXPECT_NEAR(summary.BenignLossFraction(), 0.1, 0.03);
}

TEST(ScalarGameTest, PoisonJustBelowThresholdEvades) {
  auto pool = UniformPool(2000, 3);
  StaticCollector collector(0.9, "static");
  ThresholdOffsetAdversary adversary(-0.01);  // the ideal attack
  IdentityScoreModel model(&pool);
  TrimmingSession game(SmallConfig(), &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_GT(summary.PoisonSurvivalRate(), 0.95);
}

TEST(ScalarGameTest, PoisonValueMatchesBoardQuantile) {
  auto pool = UniformPool(5000, 4);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.95);
  GameConfig config = SmallConfig();
  config.rounds = 1;
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  // With a uniform pool, the 95th-percentile poison value is ~0.95; every
  // retained poison flag should sit near it.
  const auto& retained = model.retained();
  const auto& is_poison = model.retained_is_poison();
  for (size_t i = 0; i < retained.size(); ++i) {
    if (is_poison[i]) {
      EXPECT_NEAR(retained[i], 0.95, 0.05);
    }
  }
  EXPECT_EQ(summary.rounds[0].poison_received, 40u);
}

TEST(ScalarGameTest, DeterministicInSeed) {
  auto pool = UniformPool(2000, 5);
  auto run = [&pool](uint64_t seed) {
    StaticCollector collector(0.9, "static");
    UniformRangeAdversary adversary(0.85, 1.0);  // some poison survives
    GameConfig config = SmallConfig();
    config.seed = seed;
    IdentityScoreModel model(&pool);
    TrimmingSession game(config, &model, &collector, &adversary, nullptr);
    return game.RunToCompletion().ValueOrDie().UntrimmedPoisonFraction();
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ScalarGameTest, EmptyPoolFails) {
  std::vector<double> pool;
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.9);
  IdentityScoreModel model(&pool);
  TrimmingSession game(SmallConfig(), &model, &collector, &adversary, nullptr);
  EXPECT_FALSE(game.RunToCompletion().ok());
}

TEST(ScalarGameTest, ZeroAttackRatioMeansNoPoison) {
  auto pool = UniformPool(1000, 6);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.0;
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_EQ(summary.TotalPoisonKept(), 0u);
  EXPECT_DOUBLE_EQ(summary.UntrimmedPoisonFraction(), 0.0);
  for (const auto& r : summary.rounds) {
    EXPECT_TRUE(std::isnan(r.injection_percentile));
  }
}

TEST(ScalarGameTest, TitfortatTriggersOnBadQuality) {
  auto pool = UniformPool(3000, 7);
  // Trigger as soon as the defect share exceeds ~50%.
  TitfortatCollector collector(+0.01, -0.03, /*trigger_quality=*/0.5);
  MixedPercentileAdversary adversary(0.0);  // pure defect play at the 90th
  DefectShareQuality quality(0.90, 0.99);
  GameConfig config = SmallConfig();
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, &quality);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_GT(summary.termination_round, 0);
  EXPECT_LE(summary.termination_round, 3);
}

TEST(ScalarGameTest, RoundMassTrimmingRemovesExactFraction) {
  auto pool = UniformPool(2000, 8);
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  IdentityScoreModel model(&pool);
  RoundMassReference round_mass;
  TrimmingSession game(config, &model, &collector, &adversary, nullptr,
                       &round_mass);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  for (const auto& r : summary.rounds) {
    size_t received = r.benign_received + r.poison_received;
    size_t kept = r.benign_kept + r.poison_kept;
    EXPECT_EQ(received - kept,
              static_cast<size_t>(std::ceil(0.1 * received)));
  }
}

// Regression: the degenerate all-trimmed game (threshold 0 with round-mass
// semantics removes every value of every round) must leave the summary
// fraction helpers well defined — no 0/0 from the zero-kept denominator.
TEST(ScalarGameTest, DegenerateAllTrimmedGameHasDefinedFractions) {
  auto pool = UniformPool(1000, 14);
  StaticCollector collector(0.0, "trim-everything");
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  IdentityScoreModel model(&pool);
  RoundMassReference round_mass;
  TrimmingSession game(config, &model, &collector, &adversary, nullptr,
                       &round_mass);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  ASSERT_EQ(summary.TotalKept(), 0u);
  EXPECT_DOUBLE_EQ(summary.UntrimmedPoisonFraction(), 0.0);
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 0.0);
  EXPECT_DOUBLE_EQ(summary.BenignLossFraction(), 1.0);
  EXPECT_FALSE(std::isnan(summary.UntrimmedPoisonFraction()));
  EXPECT_TRUE(model.retained().empty());
}

// Regression: no poison received at all (attack_ratio 0) combined with
// total trimming — every helper denominator is zero simultaneously.
TEST(ScalarGameTest, AllTrimmedWithoutPoisonStillDefined) {
  auto pool = UniformPool(1000, 15);
  StaticCollector collector(0.0, "trim-everything");
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  config.attack_ratio = 0.0;
  IdentityScoreModel model(&pool);
  RoundMassReference round_mass;
  TrimmingSession game(config, &model, &collector, &adversary, nullptr,
                       &round_mass);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_EQ(summary.TotalKept(), 0u);
  EXPECT_DOUBLE_EQ(summary.UntrimmedPoisonFraction(), 0.0);
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 0.0);
  EXPECT_DOUBLE_EQ(summary.BenignLossFraction(), 1.0);
}

// An empty summary (no rounds played) must also stay finite.
TEST(GameSummaryTest, EmptySummaryFractionsAreZero) {
  GameSummary summary;
  EXPECT_DOUBLE_EQ(summary.UntrimmedPoisonFraction(), 0.0);
  EXPECT_DOUBLE_EQ(summary.BenignLossFraction(), 0.0);
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 0.0);
  EXPECT_EQ(summary.TotalKept(), 0u);
}

TEST(DistanceGameTest, RunsOnMultiDimData) {
  Dataset data = MakeControl(9);
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  config.rounds = 5;
  DistanceScoreModel model(&data);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_EQ(summary.rounds.size(), 5u);
  const Dataset& retained = model.retained_data();
  EXPECT_GT(retained.rows.size(), 0u);
  EXPECT_EQ(retained.rows.size(), model.retained_is_poison().size());
  EXPECT_EQ(retained.rows.size(), retained.labels.size());
  EXPECT_EQ(retained.dims(), data.dims());
  // Poison at the 99th-percentile distance is above the 90th cutoff.
  EXPECT_LT(summary.PoisonSurvivalRate(), 0.05);
}

TEST(DistanceGameTest, OstrichKeepsPoisonRows) {
  Dataset data = MakeControl(10);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.99);
  GameConfig config = SmallConfig();
  config.rounds = 5;
  DistanceScoreModel model(&data);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_DOUBLE_EQ(summary.PoisonSurvivalRate(), 1.0);
  // Poison labels must be in the valid class range.
  const Dataset& retained = model.retained_data();
  for (int label : retained.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(data.num_clusters));
  }
}

TEST(DistanceGameTest, ReferenceCentroidFromBootstrap) {
  Dataset data = MakeControl(11);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.5);
  GameConfig config = SmallConfig();
  config.rounds = 2;
  DistanceScoreModel model(&data);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  ASSERT_TRUE(game.RunToCompletion().ok());
  EXPECT_EQ(model.reference_centroid().size(), data.dims());
}

TEST(DistanceGameTest, EmptySourceFails) {
  Dataset data;
  data.num_clusters = 1;
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.9);
  DistanceScoreModel model(&data);
  TrimmingSession game(SmallConfig(), &model, &collector, &adversary, nullptr);
  EXPECT_FALSE(game.RunToCompletion().ok());
}

// Property sweep over attack ratios: bookkeeping identities always hold.
class GameAccountingTest : public ::testing::TestWithParam<double> {};

TEST_P(GameAccountingTest, CountsAreConsistent) {
  const double ratio = GetParam();
  auto pool = UniformPool(2000, 13);
  StaticCollector collector(0.9, "static");
  UniformRangeAdversary adversary(0.85, 1.0);
  GameConfig config = SmallConfig();
  config.attack_ratio = ratio;
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  size_t expected_poison = static_cast<size_t>(
      std::llround(ratio * static_cast<double>(config.round_size)));
  for (const auto& r : summary.rounds) {
    EXPECT_EQ(r.benign_received, config.round_size);
    EXPECT_EQ(r.poison_received, expected_poison);
    EXPECT_LE(r.benign_kept, r.benign_received);
    EXPECT_LE(r.poison_kept, r.poison_received);
  }
  EXPECT_EQ(model.retained().size(), summary.TotalKept());
  EXPECT_EQ(model.retained_is_poison().size(), summary.TotalKept());
}

INSTANTIATE_TEST_SUITE_P(AttackRatios, GameAccountingTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.25, 0.5));

}  // namespace
}  // namespace itrim
