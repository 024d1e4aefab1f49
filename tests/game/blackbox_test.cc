#include "game/blackbox.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "game/score_model.h"
#include "game/session.h"

namespace itrim {
namespace {

std::vector<double> UniformPool(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pool;
  for (size_t i = 0; i < n; ++i) pool.push_back(rng.Uniform());
  return pool;
}

TEST(ProbingAdversaryTest, BinarySearchAgainstStaticThreshold) {
  // Black-box attacker vs a static collector at 0.9: after enough rounds
  // the probe bracket must converge to the true threshold.
  auto pool = UniformPool(5000, 1);
  GameConfig config;
  config.rounds = 25;
  config.round_size = 400;
  config.attack_ratio = 0.1;
  config.tth = 0.9;
  config.seed = 3;
  StaticCollector collector(0.9, "static");
  ProbingAdversary adversary(0.5, 1.0);
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_NEAR(adversary.bracket_lo(), 0.9, 0.03);
  // Late rounds should be injecting just below the threshold (surviving).
  size_t late_kept = 0, late_received = 0;
  for (size_t i = summary.rounds.size() - 5; i < summary.rounds.size(); ++i) {
    late_kept += summary.rounds[i].poison_kept;
    late_received += summary.rounds[i].poison_received;
  }
  EXPECT_GT(static_cast<double>(late_kept) /
                static_cast<double>(late_received),
            0.6);
}

TEST(ProbingAdversaryTest, RecoversIdealAttackUtility) {
  // The black-box prober should approach (not exceed) the white-box ideal
  // attack's survival against the same static defense.
  auto pool = UniformPool(5000, 2);
  GameConfig config;
  config.rounds = 30;
  config.round_size = 400;
  config.attack_ratio = 0.1;
  config.tth = 0.9;
  config.seed = 5;

  StaticCollector c1(0.9, "static");
  ThresholdOffsetAdversary white_box(-0.01);
  IdentityScoreModel g1_model(&pool);
  TrimmingSession g1(config, &g1_model, &c1, &white_box, nullptr);
  double ideal = g1.RunToCompletion().ValueOrDie().PoisonSurvivalRate();

  StaticCollector c2(0.9, "static");
  ProbingAdversary black_box(0.5, 1.0);
  IdentityScoreModel g2_model(&pool);
  TrimmingSession g2(config, &g2_model, &c2, &black_box, nullptr);
  double probed = g2.RunToCompletion().ValueOrDie().PoisonSurvivalRate();

  EXPECT_GT(probed, 0.5 * ideal);   // learns most of the ideal utility
  EXPECT_LE(probed, ideal + 0.05);  // but cannot beat white-box knowledge
}

TEST(ProbingAdversaryTest, ResetRestoresBracket) {
  ProbingAdversary adversary(0.5, 1.0);
  RoundContext ctx;
  Rng rng(1);
  adversary.InjectionPercentile(ctx, &rng);
  RoundObservation obs;
  obs.poison_received = 10;
  obs.poison_kept = 10;
  adversary.Observe(obs);
  EXPECT_GT(adversary.bracket_lo(), 0.5);
  adversary.Reset();
  EXPECT_DOUBLE_EQ(adversary.bracket_lo(), 0.5);
  EXPECT_DOUBLE_EQ(adversary.bracket_hi(), 1.0);
}

TEST(ProbingAdversaryTest, NoPoisonFeedbackLeavesBracket) {
  ProbingAdversary adversary(0.5, 1.0);
  RoundObservation obs;  // poison_received = 0
  adversary.Observe(obs);
  EXPECT_DOUBLE_EQ(adversary.bracket_lo(), 0.5);
  EXPECT_DOUBLE_EQ(adversary.bracket_hi(), 1.0);
}

TEST(ProbingAdversaryTest, TrimmedProbeLowersUpperBound) {
  ProbingAdversary adversary(0.5, 1.0);
  RoundContext ctx;
  Rng rng(2);
  double probe = adversary.InjectionPercentile(ctx, &rng);
  EXPECT_DOUBLE_EQ(probe, 0.75);
  RoundObservation obs;
  obs.poison_received = 10;
  obs.poison_kept = 0;  // everything trimmed: threshold below the probe
  adversary.Observe(obs);
  EXPECT_DOUBLE_EQ(adversary.bracket_hi(), 0.75);
}

TEST(ProbingAdversaryTest, ChasesAdaptiveCollector) {
  // Against an Elastic collector both sides adapt; the game must stay
  // well-behaved and the prober must keep a meaningful survival rate.
  auto pool = UniformPool(5000, 7);
  GameConfig config;
  config.rounds = 40;
  config.round_size = 400;
  config.attack_ratio = 0.1;
  config.tth = 0.9;
  config.seed = 11;
  ElasticCollector collector(0.5);
  ProbingAdversary adversary(0.5, 1.0);
  IdentityScoreModel model(&pool);
  TrimmingSession game(config, &model, &collector, &adversary, nullptr);
  GameSummary summary = game.RunToCompletion().ValueOrDie();
  EXPECT_GT(summary.PoisonSurvivalRate(), 0.2);
  EXPECT_LT(summary.BenignLossFraction(), 0.3);
}

}  // namespace
}  // namespace itrim
